package netsim

import (
	"testing"
	"time"

	"dualpar/internal/fault"
	"dualpar/internal/sim"
)

// mb is the message size the timing tests send; x is its serialization
// time on one link.
const mb = 1e6

var x = Xfer(mb)

func TestSingleMessageTime(t *testing.T) {
	k := sim.NewKernel(1)
	n := New()
	var took time.Duration
	k.Spawn("sender", func(p *sim.Proc) {
		t0 := p.Now()
		n.Send(p, 0, 1, mb)
		took = p.Now() - t0
	})
	k.Run()
	if want := Latency + x; took != want {
		t.Fatalf("delivery took %v, want %v", took, want)
	}
}

// TestXferIsLinkRate pins the link rate: one second's worth of bytes takes
// exactly one second to serialize.
func TestXferIsLinkRate(t *testing.T) {
	if got := Xfer(bandwidth); got != time.Second {
		t.Fatalf("Xfer(%g) = %v, want 1s", float64(bandwidth), got)
	}
	if got := Xfer(0); got != 0 {
		t.Fatalf("Xfer(0) = %v, want 0", got)
	}
}

func TestLocalDeliveryFree(t *testing.T) {
	k := sim.NewKernel(1)
	n := New()
	var took time.Duration
	k.Spawn("sender", func(p *sim.Proc) {
		t0 := p.Now()
		n.Send(p, 3, 3, 1<<30)
		took = p.Now() - t0
	})
	k.Run()
	if took != 0 {
		t.Fatalf("same-node send took %v, want 0", took)
	}
}

func TestSenderLinkSerializes(t *testing.T) {
	// Two messages from the same sender to different receivers share the
	// uplink: total time ~ 2x single transfer.
	k := sim.NewKernel(1)
	n := New()
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("sender", func(p *sim.Proc) {
			n.Send(p, 0, 1+i, mb)
			done[i] = p.Now()
		})
	}
	k.Run()
	latest := done[0]
	if done[1] > latest {
		latest = done[1]
	}
	// The second message leaves the uplink only after the first.
	if want := 2*x + Latency; latest != want {
		t.Fatalf("two transfers on one uplink finished at %v, want %v", latest, want)
	}
}

func TestIncastReceiverSerializes(t *testing.T) {
	// Four senders to one receiver: the downlink is the bottleneck.
	k := sim.NewKernel(1)
	n := New()
	var latest time.Duration
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn("sender", func(p *sim.Proc) {
			n.Send(p, 1+i, 0, mb)
			if p.Now() > latest {
				latest = p.Now()
			}
		})
	}
	k.Run()
	if want := 4*x + Latency; latest != want {
		t.Fatalf("4-way incast finished at %v, want %v (the downlink serializes)", latest, want)
	}
}

func TestDisjointPairsRunInParallel(t *testing.T) {
	// A switched fabric: 0->1 and 2->3 do not contend.
	k := sim.NewKernel(1)
	n := New()
	var latest time.Duration
	pairs := [][2]int{{0, 1}, {2, 3}}
	for _, pr := range pairs {
		pr := pr
		k.Spawn("sender", func(p *sim.Proc) {
			n.Send(p, pr[0], pr[1], mb)
			if p.Now() > latest {
				latest = p.Now()
			}
		})
	}
	k.Run()
	if want := x + Latency; latest != want {
		t.Fatalf("disjoint transfers finished at %v, want %v (parallel)", latest, want)
	}
}

func TestDelayChargesLatencyOnly(t *testing.T) {
	k := sim.NewKernel(1)
	n := New()
	var took time.Duration
	k.Spawn("p", func(p *sim.Proc) {
		t0 := p.Now()
		n.Delay(p)
		took = p.Now() - t0
	})
	k.Run()
	if took != Latency {
		t.Fatalf("Delay took %v, want %v", took, Latency)
	}
}

func TestTrafficCounters(t *testing.T) {
	k := sim.NewKernel(1)
	n := New()
	k.Spawn("p", func(p *sim.Proc) {
		n.Send(p, 0, 1, 1000)
		n.Send(p, 0, 0, 1000) // local: never on the wire, counts toward neither
	})
	k.Run()
	if n.BytesSent() != 1000 || n.Messages() != 1 {
		t.Fatalf("bytes=%d messages=%d, want 1000/1", n.BytesSent(), n.Messages())
	}
}

func TestFaultDropChargesRetransmitTimeout(t *testing.T) {
	k := sim.NewKernel(1)
	n := New()
	// Drop every attempt (prob capped at 0.95, so use many tries' worth of
	// certainty via prob close to 1 is not possible; instead drop window
	// with p=0.95 and a fixed seed gives a deterministic drop count).
	n.SetFaults(fault.NewInjector(k, &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.LinkDrop, Target: 1, Prob: 0.95, Start: 0, End: time.Hour},
	}}, 42))
	var took time.Duration
	k.Spawn("sender", func(p *sim.Proc) {
		t0 := p.Now()
		n.Send(p, 0, 1, mb) // one delivery + a timeout per drop
		took = p.Now() - t0
	})
	k.Run()
	if n.Drops() == 0 {
		t.Fatalf("no drops at p=0.95")
	}
	want := time.Duration(n.Drops())*retransmitTimeout + Latency + x
	if took != want {
		t.Fatalf("delivery took %v with %d drops, want %v", took, n.Drops(), want)
	}
}

func TestFaultLinkDegradeInflatesSerialization(t *testing.T) {
	k := sim.NewKernel(1)
	n := New()
	n.SetFaults(fault.NewInjector(k, &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.LinkSlow, Target: 1, Factor: 4},
	}}, 1))
	var slow, healthy time.Duration
	k.Spawn("sender", func(p *sim.Proc) {
		t0 := p.Now()
		n.Send(p, 0, 1, mb) // degraded endpoint: 4x serialization
		slow = p.Now() - t0
		t0 = p.Now()
		n.Send(p, 2, 3, mb) // untouched pair
		healthy = p.Now() - t0
	})
	k.Run()
	if want := Latency + x; healthy != want {
		t.Fatalf("healthy transfer took %v, want %v", healthy, want)
	}
	if want := Latency + time.Duration(float64(x)*4); slow != want {
		t.Fatalf("degraded transfer took %v, want %v", slow, want)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	k := sim.NewKernel(1)
	n := New()
	k.Spawn("p", func(p *sim.Proc) {
		n.Send(p, 0, 1, -1)
	})
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	k.Run()
}
