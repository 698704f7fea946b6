package iosched

import (
	"testing"
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/sim"
)

func TestAnticipatorySortsBatch(t *testing.T) {
	reqs := []*Request{
		{LBN: 9000, Sectors: 8, Origin: 1},
		{LBN: 1000, Sectors: 8, Origin: 2},
		{LBN: 5000, Sectors: 8, Origin: 3},
	}
	got := serviceOrder(t, NewAnticipatory(), reqs, []time.Duration{0, 0, 0})
	want := []int64{1000, 5000, 9000}
	for i := range want {
		if got[i].LBN != want[i] {
			t.Fatalf("order %+v, want ascending %v", got, want)
		}
	}
}

func TestAnticipatoryWaitsForNearbyRequest(t *testing.T) {
	// Origin 1 issues a sequential synchronous stream; origin 2 has a
	// far-away request pending. Once origin 1's think time and proximity
	// are established, the scheduler idles for origin 1 instead of seeking
	// to origin 2.
	k := sim.NewKernel(1)
	d := disk.New(1 << 24)
	disp := NewDispatcher(k, "disp", d, NewAnticipatory())
	tr := disp.EnableTrace()
	k.After(0, func() { disp.Enqueue(&Request{LBN: 1 << 23, Sectors: 8, Origin: 2}) })
	k.Spawn("stream", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			disp.Submit(p, &Request{LBN: int64(i) * 8, Sectors: 8, Origin: 1})
			p.Sleep(time.Millisecond) // think time well under the window
		}
	})
	k.RunUntil(time.Hour)
	entries := tr.Entries()
	if len(entries) != 9 {
		t.Fatalf("served %d, want 9", len(entries))
	}
	// After warmup (2 samples), the stream must be uninterrupted: find the
	// far request's service position; it must be near the start (before
	// anticipation kicks in) or at the very end.
	farPos := -1
	for i, e := range entries {
		if e.LBN == 1<<23 {
			farPos = i
		}
	}
	if farPos > 3 && farPos != len(entries)-1 {
		t.Fatalf("far request served mid-stream at %d: %+v", farPos, entries)
	}
}

func TestAnticipatoryGivesUpOnSeekyOrigin(t *testing.T) {
	// Origin 1's requests are far apart (seeky): anticipation must not
	// hold the disk for it once history shows waiting cannot pay off.
	k := sim.NewKernel(1)
	d := disk.New(1 << 24)
	disp := NewDispatcher(k, "disp", d, NewAnticipatory())
	tr := disp.EnableTrace()
	done := make([]time.Duration, 0, 12)
	k.Spawn("seeky", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			disp.Submit(p, &Request{LBN: int64(i%2)*(1<<23) + int64(i)*100000, Sectors: 8, Origin: 1})
			p.Sleep(time.Millisecond)
			done = append(done, p.Now())
		}
	})
	k.Spawn("other", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			disp.Submit(p, &Request{LBN: 4096 + int64(i)*8, Sectors: 8, Origin: 2})
			p.Sleep(time.Millisecond)
		}
	})
	k.RunUntil(time.Hour)
	if tr.Len() != 12 {
		t.Fatalf("served %d, want 12", tr.Len())
	}
	// The run must complete without the ~6ms idle being inserted after
	// every one of origin 1's requests; a loose bound on total time
	// catches pathological anticipation.
	last := tr.Entries()[tr.Len()-1].At
	if last > 200*time.Millisecond {
		t.Fatalf("run took %v; anticipation is stalling on a seeky origin", last)
	}
}

func TestAnticipatoryWriteExpiry(t *testing.T) {
	// A pending write must eventually be served even while reads keep the
	// elevator busy elsewhere: the read stream runs past anticWriteExpire.
	k := sim.NewKernel(1)
	d := disk.New(1 << 24)
	disp := NewDispatcher(k, "disp", d, NewAnticipatory())
	tr := disp.EnableTrace()
	k.After(0, func() { disp.Enqueue(&Request{LBN: 1 << 23, Sectors: 8, Write: true, Origin: 9}) })
	const gap = 3 * time.Millisecond
	reads := int(2 * anticWriteExpire / gap)
	for i := 0; i < reads; i++ {
		i := i
		k.After(time.Duration(i)*gap, func() {
			disp.Enqueue(&Request{LBN: int64(i) * 512, Sectors: 8, Origin: 1})
		})
	}
	k.RunUntil(time.Hour)
	servedAt := time.Duration(-1)
	for _, e := range tr.Entries() {
		if e.Write {
			servedAt = e.At
		}
	}
	if servedAt < 0 || servedAt > anticWriteExpire+150*time.Millisecond {
		t.Fatalf("expired write served at %v, want bounded by expiry %v", servedAt, anticWriteExpire)
	}
	if servedAt < anticWriteExpire {
		t.Fatalf("write served at %v, before its expiry %v: the reads did not hold it back", servedAt, anticWriteExpire)
	}
}

func TestAnticipatoryName(t *testing.T) {
	if NewAnticipatory().Name() != "anticipatory" {
		t.Fatalf("name = %q", NewAnticipatory().Name())
	}
}
