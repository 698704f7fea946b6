package netsim

import (
	"testing"
	"time"

	"dualpar/internal/fault"
	"dualpar/internal/sim"
)

func TestSingleMessageTime(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, Config{Latency: time.Millisecond, Bandwidth: 1e6}) // 1 MB/s
	var took time.Duration
	k.Spawn("sender", func(p *sim.Proc) {
		t0 := p.Now()
		n.Send(p, 0, 1, 1e6) // 1 MB at 1 MB/s = 1 s + 1 ms latency
		took = p.Now() - t0
	})
	k.Run()
	want := time.Second + time.Millisecond
	if took != want {
		t.Fatalf("delivery took %v, want %v", took, want)
	}
}

func TestLocalDeliveryFree(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, DefaultConfig())
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
	n := New(k, Config{Latency: 0, Bandwidth: 1e6})
	var done [2]time.Duration
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("sender", func(p *sim.Proc) {
			n.Send(p, 0, 1+i, 1e6)
			done[i] = p.Now()
		})
	}
	k.Run()
	latest := done[0]
	if done[1] > latest {
		latest = done[1]
	}
	if latest < 2*time.Second {
		t.Fatalf("two 1s transfers on one uplink finished at %v, want >= 2s", latest)
	}
}

func TestIncastReceiverSerializes(t *testing.T) {
	// Four senders to one receiver: the downlink is the bottleneck.
	k := sim.NewKernel(1)
	n := New(k, Config{Latency: 0, Bandwidth: 1e6})
	var latest time.Duration
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn("sender", func(p *sim.Proc) {
			n.Send(p, 1+i, 0, 1e6)
			if p.Now() > latest {
				latest = p.Now()
			}
		})
	}
	k.Run()
	if latest < 4*time.Second {
		t.Fatalf("4x1MB incast finished at %v, want >= 4s on a 1MB/s downlink", latest)
	}
}

func TestDisjointPairsRunInParallel(t *testing.T) {
	// A switched fabric: 0->1 and 2->3 do not contend.
	k := sim.NewKernel(1)
	n := New(k, Config{Latency: 0, Bandwidth: 1e6})
	var latest time.Duration
	pairs := [][2]int{{0, 1}, {2, 3}}
	for _, pr := range pairs {
		pr := pr
		k.Spawn("sender", func(p *sim.Proc) {
			n.Send(p, pr[0], pr[1], 1e6)
			if p.Now() > latest {
				latest = p.Now()
			}
		})
	}
	k.Run()
	if latest != time.Second {
		t.Fatalf("disjoint transfers finished at %v, want 1s (parallel)", latest)
	}
}

func TestDelayChargesLatencyOnly(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, DefaultConfig())
	var took time.Duration
	k.Spawn("p", func(p *sim.Proc) {
		t0 := p.Now()
		n.Delay(p)
		took = p.Now() - t0
	})
	k.Run()
	if took != DefaultConfig().Latency {
		t.Fatalf("Delay took %v, want %v", took, DefaultConfig().Latency)
	}
}

func TestTrafficCounters(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, DefaultConfig())
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
	cfg := Config{Latency: 0, Bandwidth: 1e6, RetransmitTimeout: 300 * time.Millisecond}
	n := New(k, cfg)
	// Drop every attempt (prob capped at 0.95, so use many tries' worth of
	// certainty via prob close to 1 is not possible; instead drop window
	// with p=0.95 and a fixed seed gives a deterministic drop count).
	n.SetFaults(fault.NewInjector(k, &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.LinkDrop, Target: 1, Prob: 0.95, Start: 0, End: time.Hour},
	}}, 42))
	var took time.Duration
	k.Spawn("sender", func(p *sim.Proc) {
		t0 := p.Now()
		n.Send(p, 0, 1, 1e6) // 1 s serialization + drops
		took = p.Now() - t0
	})
	k.Run()
	if n.Drops() == 0 {
		t.Fatalf("no drops at p=0.95")
	}
	want := time.Second + time.Duration(n.Drops())*cfg.RetransmitTimeout
	if took != want {
		t.Fatalf("delivery took %v with %d drops, want %v", took, n.Drops(), want)
	}
}

func TestFaultLinkDegradeInflatesSerialization(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, Config{Latency: 0, Bandwidth: 1e6})
	n.SetFaults(fault.NewInjector(k, &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.LinkSlow, Target: 1, Factor: 4},
	}}, 1))
	var slow, healthy time.Duration
	k.Spawn("sender", func(p *sim.Proc) {
		t0 := p.Now()
		n.Send(p, 0, 1, 1e6) // degraded endpoint: 4x serialization
		slow = p.Now() - t0
		t0 = p.Now()
		n.Send(p, 2, 3, 1e6) // untouched pair
		healthy = p.Now() - t0
	})
	k.Run()
	if healthy != time.Second {
		t.Fatalf("healthy transfer took %v, want 1s", healthy)
	}
	if slow != 4*time.Second {
		t.Fatalf("degraded transfer took %v, want 4s", slow)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	k := sim.NewKernel(1)
	n := New(k, DefaultConfig())
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

func TestValidate(t *testing.T) {
	if (Config{Latency: -1, Bandwidth: 1}).Validate() == nil {
		t.Fatalf("negative latency passed")
	}
	if (Config{Latency: 0, Bandwidth: 0}).Validate() == nil {
		t.Fatalf("zero bandwidth passed")
	}
	if DefaultConfig().Validate() != nil {
		t.Fatalf("default config invalid")
	}
}
