package iosched

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/sim"
)

// completionProperty drives a random request stream through an algorithm
// and checks conservation: every submitted request completes exactly once,
// and the device moves exactly the submitted bytes.
func completionProperty(t *testing.T, mk func() Algorithm) {
	t.Helper()
	f := func(seed int64, n uint8) bool {
		count := 1 + int(n)%48
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		dp := disk.DefaultParams()
		dp.Sectors = 1 << 24
		d := disk.New(dp)
		disp := NewDispatcher(k, "disp", d, mk())
		completed := 0
		var wantBytes int64
		for i := 0; i < count; i++ {
			r := &Request{
				LBN:     rng.Int63n(1 << 20),
				Sectors: 1 + rng.Int63n(64),
				Write:   rng.Intn(2) == 0,
				Origin:  rng.Intn(5),
			}
			wantBytes += r.Sectors * 512
			at := time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
			k.After(at, func() { disp.Enqueue(r) })
			req := r
			k.Spawn("waiter", func(p *sim.Proc) {
				p.Sleep(at)
				disp.Wait(p, req)
				completed++
			})
		}
		k.RunUntil(time.Hour)
		st := d.Stats()
		return completed == count && st.BytesRead+st.BytesWritten == wantBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNOOPCompletesEverything(t *testing.T) {
	completionProperty(t, func() Algorithm { return NewNOOP() })
}

func TestDeadlineCompletesEverything(t *testing.T) {
	completionProperty(t, func() Algorithm { return NewDeadline() })
}

func TestCFQCompletesEverything(t *testing.T) {
	completionProperty(t, func() Algorithm { return NewCFQ() })
}

func TestAnticipatoryCompletesEverything(t *testing.T) {
	completionProperty(t, func() Algorithm { return NewAnticipatory() })
}

// Overlapping submissions from many concurrent procs must also all finish
// (exercises merge-completion and wakeup paths together).
func TestConcurrentSubmittersAllComplete(t *testing.T) {
	for _, mk := range []func() Algorithm{
		func() Algorithm { return NewNOOP() },
		func() Algorithm { return NewDeadline() },
		func() Algorithm { return NewCFQ() },
		func() Algorithm { return NewAnticipatory() },
	} {
		k := sim.NewKernel(11)
		dp := disk.DefaultParams()
		dp.Sectors = 1 << 24
		d := disk.New(dp)
		disp := NewDispatcher(k, "disp", d, mk())
		done := 0
		for o := 0; o < 8; o++ {
			o := o
			k.Spawn("submitter", func(p *sim.Proc) {
				for i := 0; i < 20; i++ {
					disp.Submit(p, &Request{
						LBN:     int64(o)*100000 + int64(i)*8,
						Sectors: 8,
						Origin:  o,
					})
					done++
				}
			})
		}
		k.RunUntil(time.Hour)
		if done != 160 {
			t.Fatalf("%T: %d of 160 submissions completed", mk(), done)
		}
	}
}
