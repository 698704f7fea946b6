package pfs

import (
	"testing"

	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// benchTransfer measures one steady-state client operation through the
// whole pfs layer — split, per-replica requests, server queues and
// workers, the stores beneath, and the watchdog-free wait — over a
// 6-server file system. Each op covers one stripe unit on every server.
// The loop is warmed before the timer starts so the transfer pools
// and the stores' caches are populated; what remains is the per-op cost.
// cold empties the transfer pools before every timed op, as they are when
// a cluster's run starts, so each op carves its records afresh.
func benchTransfer(b *testing.B, replicas int, write, cold bool) {
	k, fsys := testReplicatedFS(6, replicas)
	cl := fsys.Client(100)
	unit := StripeUnit
	extents := []ext.Extent{{Off: 0, Len: 6 * unit}}
	do := cl.Read
	if write {
		do = cl.Write
	}
	const warm = 256
	k.Spawn("bench", func(p *sim.Proc) {
		cl.Create(p, "bench.dat", 6*unit)
		for i := 0; i < warm+b.N; i++ {
			if i == warm {
				b.ResetTimer()
			}
			if cold && i >= warm {
				fsys.reqPool, fsys.issPool = sim.Pool[serverReq]{}, sim.Pool[issued]{}
				fsys.groupPool, fsys.opPool = sim.Pool[xferGroup]{}, sim.Pool[xferOp]{}
			}
			if err := do(p, "bench.dat", extents, 1, obs.Ctx{}); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
	})
	b.ReportAllocs()
	k.RunUntil(1 << 62)
}

func BenchmarkPFSTransferReadR1(b *testing.B)  { benchTransfer(b, 1, false, false) }
func BenchmarkPFSTransferReadR3(b *testing.B)  { benchTransfer(b, 3, false, false) }
func BenchmarkPFSTransferWriteR1(b *testing.B) { benchTransfer(b, 1, true, false) }
func BenchmarkPFSTransferWriteR3(b *testing.B) { benchTransfer(b, 3, true, false) }

// BenchmarkPFSTransferCold is an R3 write on empty transfer pools: the
// first-use cost of every record kind, several replicas per group.
func BenchmarkPFSTransferCold(b *testing.B) { benchTransfer(b, 3, true, true) }
