package disk

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dualpar/internal/sim"
)

// testSectors is the test drive's capacity: 8 GB keeps seek fractions
// meaningful.
const testSectors = 1 << 24

// runAccesses serves the accesses on one disk in order and returns the total
// busy time.
func runAccesses(t *testing.T, d *Disk, acc [][2]int64) time.Duration {
	t.Helper()
	k := sim.NewKernel(1)
	var total time.Duration
	k.Spawn("dispatcher", func(p *sim.Proc) {
		for _, a := range acc {
			total += d.Access(p, a[0], a[1], false).Total()
		}
	})
	k.Run()
	return total
}

func TestSequentialFasterThanRandom(t *testing.T) {
	const n = 64
	const sz = 32 // 16 KB
	seq := make([][2]int64, n)
	rnd := make([][2]int64, n)
	for i := 0; i < n; i++ {
		seq[i] = [2]int64{int64(i) * sz, sz}
		// Scatter randoms across the device, alternating halves to force
		// long seeks.
		pos := int64(i%2)*(1<<23) + int64(i)*100000
		rnd[i] = [2]int64{pos, sz}
	}
	tSeq := runAccesses(t, New(testSectors), seq)
	tRnd := runAccesses(t, New(testSectors), rnd)
	if ratio := float64(tRnd) / float64(tSeq); ratio < 10 {
		t.Fatalf("random/sequential time ratio = %.1f, want >= 10 (order-of-magnitude gap)", ratio)
	}
}

func TestSequentialAccessNoSeek(t *testing.T) {
	d := New(testSectors)
	runAccesses(t, d, [][2]int64{{0, 64}, {64, 64}, {128, 64}})
	s := d.Stats()
	if s.Seeks != 0 {
		t.Fatalf("seeks = %d, want 0 for back-to-back sequential accesses", s.Seeks)
	}
	if s.SequentialRun != 3 {
		t.Fatalf("sequential runs = %d, want 3", s.SequentialRun)
	}
}

func TestSeekDistanceAccounting(t *testing.T) {
	d := New(testSectors)
	runAccesses(t, d, [][2]int64{{0, 10}, {1000000, 10}})
	s := d.Stats()
	// Second access seeks from LBN 10 to 1000000.
	want := int64(1000000 - 10)
	if s.SeekSectors != want {
		t.Fatalf("seek sectors = %d, want %d", s.SeekSectors, want)
	}
	if got := s.AvgSeekDistance(); got != float64(want)/2 {
		t.Fatalf("avg seek = %g, want %g", got, float64(want)/2)
	}
}

func TestShortForwardGapStreamsOverIt(t *testing.T) {
	d := New(testSectors)
	k := sim.NewKernel(1)
	var tGap, tFar time.Duration
	k.Spawn("d", func(pr *sim.Proc) {
		d.Access(pr, 0, 64, false)
		tGap = d.ServiceTime(64+seqWindow/2, 64) // short forward skip
		tFar = d.ServiceTime(1<<23, 64)          // long seek
	})
	k.Run()
	if tGap >= tFar {
		t.Fatalf("short-gap service %v not cheaper than far seek %v", tGap, tFar)
	}
	if tGap >= rotation {
		t.Fatalf("short-gap service %v should avoid rotational latency %v", tGap, rotation)
	}
}

func TestLargerTransfersAmortizeOverhead(t *testing.T) {
	d := New(testSectors)
	small := d.ServiceTime(1<<23, 8)
	big := d.ServiceTime(1<<23, 8*64)
	if float64(big) > float64(small)*4 {
		t.Fatalf("64x larger transfer took %v vs %v: positioning should dominate small transfers", big, small)
	}
}

func TestAccessOutOfRangePanics(t *testing.T) {
	d := New(testSectors)
	k := sim.NewKernel(1)
	k.Spawn("d", func(p *sim.Proc) {
		d.Access(p, d.Sectors()-1, 2, false)
	})
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for out-of-range access")
		}
	}()
	k.Run()
}

func TestStatsReadWriteBytes(t *testing.T) {
	d := New(testSectors)
	k := sim.NewKernel(1)
	k.Spawn("d", func(p *sim.Proc) {
		d.Access(p, 0, 16, false)
		d.Access(p, 1<<20, 32, true)
	})
	k.Run()
	s := d.Stats()
	if s.BytesRead != 16*512 || s.BytesWritten != 32*512 {
		t.Fatalf("bytes = %d read / %d written, want %d / %d", s.BytesRead, s.BytesWritten, 16*512, 32*512)
	}
}

func TestStatsSub(t *testing.T) {
	d := New(testSectors)
	k := sim.NewKernel(1)
	var before Stats
	k.Spawn("d", func(p *sim.Proc) {
		d.Access(p, 0, 16, false)
		before = d.Stats()
		d.Access(p, 1<<20, 16, false)
	})
	k.Run()
	delta := d.Stats().Sub(before)
	if delta.Accesses != 1 || delta.Seeks != 1 {
		t.Fatalf("delta = %+v, want 1 access, 1 seek", delta)
	}
}

func TestTraceWindow(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 10; i++ {
		tr.Add(Entry{At: time.Duration(i) * time.Second, LBN: int64(i)})
	}
	w := tr.Window(3*time.Second, 6*time.Second)
	if len(w) != 3 || w[0].LBN != 3 || w[2].LBN != 5 {
		t.Fatalf("window = %+v", w)
	}
}

func TestTraceCSV(t *testing.T) {
	tr := &Trace{}
	tr.Add(Entry{At: time.Second, LBN: 42, Sectors: 8, Write: true})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "time_s,lbn,sectors,rw") || !strings.Contains(out, "1.000000,42,8,W") {
		t.Fatalf("csv output:\n%s", out)
	}
}

func TestMonotonicity(t *testing.T) {
	up := []Entry{{LBN: 1}, {LBN: 2}, {LBN: 3}, {LBN: 4}}
	if m := Monotonicity(up); m != 1 {
		t.Fatalf("ascending monotonicity = %g, want 1", m)
	}
	zigzag := []Entry{{LBN: 1}, {LBN: 100}, {LBN: 2}, {LBN: 101}, {LBN: 3}}
	if m := Monotonicity(zigzag); m > 0.6 {
		t.Fatalf("zigzag monotonicity = %g, want <= 0.6", m)
	}
	if m := Monotonicity(nil); m != 1 {
		t.Fatalf("empty monotonicity = %g, want 1", m)
	}
}

func TestMeanSeek(t *testing.T) {
	entries := []Entry{{LBN: 0, Sectors: 10}, {LBN: 10, Sectors: 10}, {LBN: 120, Sectors: 10}}
	// gaps: 0 then 100 -> mean 50
	if m := MeanSeek(entries); m != 50 {
		t.Fatalf("mean seek = %g, want 50", m)
	}
}

func TestServiceTimeMonotoneInDistance(t *testing.T) {
	f := func(a, b uint32) bool {
		d := New(testSectors)
		// Position head at middle.
		d.head = testSectors / 2
		da := int64(a) % (testSectors / 2)
		db := int64(b) % (testSectors / 2)
		if da > db {
			da, db = db, da
		}
		// Skip the streaming window where cost is transfer-based.
		if da <= seqWindow {
			return true
		}
		ta := d.ServiceTime(d.head+da, 8)
		tb := d.ServiceTime(d.head+db, 8)
		return ta <= tb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsNonPositiveCapacity(t *testing.T) {
	for _, sectors := range []int64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d) did not panic", sectors)
				}
			}()
			New(sectors)
		}()
	}
}

func TestRAID0StripesAcrossMembers(t *testing.T) {
	m0, m1 := New(testSectors), New(testSectors)
	r := NewRAID0([]*Disk{m0, m1}, 128) // 64 KB chunks
	k := sim.NewKernel(1)
	k.Spawn("d", func(pr *sim.Proc) {
		r.Access(pr, 0, 512, false) // 256 KB spanning 4 chunks
	})
	k.Run()
	if m0.Stats().BytesRead != 128*2*512 || m1.Stats().BytesRead != 128*2*512 {
		t.Fatalf("member reads %d/%d, want even split", m0.Stats().BytesRead, m1.Stats().BytesRead)
	}
}

func TestRAID0ParallelSpeedup(t *testing.T) {
	single := New(testSectors)
	r := NewRAID0([]*Disk{New(testSectors), New(testSectors)}, 128)
	k := sim.NewKernel(1)
	var tSingle, tRaid time.Duration
	k.Spawn("d", func(pr *sim.Proc) {
		tSingle = single.Access(pr, 0, 4096, false).Total()
		tRaid = r.Access(pr, 0, 4096, false).Total()
	})
	k.Run()
	if tRaid >= tSingle {
		t.Fatalf("RAID0 access %v not faster than single disk %v", tRaid, tSingle)
	}
}

func TestRAID0BreakdownIsSlowestMember(t *testing.T) {
	m0, m1 := New(testSectors), New(testSectors)
	r := NewRAID0([]*Disk{m0, m1}, 128)
	k := sim.NewKernel(1)
	k.Spawn("d", func(pr *sim.Proc) {
		// Chunk 200001 is member 1's: its head ends far out.
		r.Access(pr, 200001*128, 128, false)
		b0, b1 := m0.Stats().BusyTime, m1.Stats().BusyTime
		// Chunks 0 and 1: member 0 reads on from its head, member 1 seeks back.
		bd := r.Access(pr, 0, 256, false)
		d0, d1 := m0.Stats().BusyTime-b0, m1.Stats().BusyTime-b1
		if d1 <= d0 || bd.Total() != d1 || bd.Seek == 0 {
			t.Errorf("breakdown %+v (total %v), member times %v/%v: want member 1's", bd, bd.Total(), d0, d1)
		}
	})
	k.Run()
}

func TestRAID0CapacityAndBounds(t *testing.T) {
	r := NewRAID0([]*Disk{New(testSectors), New(testSectors)}, 128)
	if r.Sectors() != 2*testSectors {
		t.Fatalf("capacity = %d, want %d", r.Sectors(), 2*testSectors)
	}
	k := sim.NewKernel(1)
	k.Spawn("d", func(pr *sim.Proc) {
		r.Access(pr, r.Sectors()-1, 2, false)
	})
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for out-of-range RAID access")
		}
	}()
	k.Run()
}

func TestRAID0MergesMemberRuns(t *testing.T) {
	// A logical sequential scan should produce sequential member accesses
	// (one per member per Access call), not one access per chunk.
	m0, m1 := New(testSectors), New(testSectors)
	r := NewRAID0([]*Disk{m0, m1}, 128)
	k := sim.NewKernel(1)
	k.Spawn("d", func(pr *sim.Proc) {
		r.Access(pr, 0, 128*6, false) // 6 chunks: 3 per member
	})
	k.Run()
	if a := m0.Stats().Accesses; a != 1 {
		t.Fatalf("member 0 accesses = %d, want 1 (coalesced run)", a)
	}
	if s := m0.Stats().Seeks + m1.Stats().Seeks; s != 0 {
		t.Fatalf("member seeks = %d, want 0", s)
	}
}
