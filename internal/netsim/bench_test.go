package netsim

import (
	"testing"
	"time"

	"dualpar/internal/fault"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// BenchmarkKernelNetSend measures the per-message cost of the network
// model (link free-time bookkeeping plus the kernel sleep), the innermost
// loop of every simulated transfer.
func BenchmarkKernelNetSend(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	n := New(k, DefaultConfig())
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			n.Send(p, i%4, 4+i%4, 64<<10)
		}
	})
	k.Run()
}

// BenchmarkSendLossy measures a crash-aware send through a fault injector
// that carries crash windows and is bound to 6 data servers (nodes 1..6):
// each message asks the injector about both endpoints. Server 5 (node 6) is
// down for the whole run and no message addresses it, so every message is
// delivered and the cost is that of the crash queries, not of voiding.
func BenchmarkSendLossy(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	n := New(k, DefaultConfig())
	inj := fault.NewInjector(k, &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.ServerCrash, Target: 5},
		{Kind: fault.ServerCrash, Target: 2, Start: 1000 * time.Hour, End: 1001 * time.Hour},
	}}, 1)
	inj.BindServerNodes([]int{1, 2, 3, 4, 5, 6})
	n.SetFaults(inj)
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if !n.SendLossy(p, 100+i%4, 1+i%5, 64<<10, obs.Ctx{}) {
				b.Errorf("message %d voided: its server is up", i)
				return
			}
		}
	})
	k.RunUntil(999 * time.Hour)
}

// BenchmarkSendLossyVoided is BenchmarkSendLossy with every message
// addressed to server 5 (node 6), which is down for the whole run, so each
// one is voided. Tracing is off: a voided message must format nothing.
func BenchmarkSendLossyVoided(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	n := New(k, DefaultConfig())
	inj := fault.NewInjector(k, &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.ServerCrash, Target: 5},
	}}, 1)
	inj.BindServerNodes([]int{1, 2, 3, 4, 5, 6})
	n.SetFaults(inj)
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if n.SendLossy(p, 100+i%4, 6, 64<<10, obs.Ctx{}) {
				b.Errorf("message %d delivered: its server is down", i)
				return
			}
		}
	})
	k.Run()
}
