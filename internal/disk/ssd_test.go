package disk

import (
	"testing"
	"time"

	"dualpar/internal/sim"
)

func TestSSDPositionIndependent(t *testing.T) {
	d := NewSSD()
	k := sim.NewKernel(1)
	var seq, rnd time.Duration
	k.Spawn("d", func(p *sim.Proc) {
		seq = d.Access(p, 0, 64, false).Total()
		seq += d.Access(p, 64, 64, false).Total()
		rnd = d.Access(p, 1<<27, 64, false).Total()
		rnd += d.Access(p, 5, 64, false).Total()
	})
	k.Run()
	if seq != rnd {
		t.Fatalf("sequential %v != random %v on SSD", seq, rnd)
	}
}

func TestSSDWriteSlowerThanRead(t *testing.T) {
	d := NewSSD()
	k := sim.NewKernel(1)
	var r, w time.Duration
	k.Spawn("d", func(p *sim.Proc) {
		r = d.Access(p, 0, 8, false).Total()
		w = d.Access(p, 1<<20, 8, true).Total()
	})
	k.Run()
	if w <= r {
		t.Fatalf("write %v not slower than read %v", w, r)
	}
}

func TestSSDBoundsPanic(t *testing.T) {
	d := NewSSD()
	k := sim.NewKernel(1)
	k.Spawn("d", func(p *sim.Proc) {
		d.Access(p, d.Sectors(), 1, false)
	})
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	k.Run()
}
