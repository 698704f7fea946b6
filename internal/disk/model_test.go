package disk

import (
	"testing"
	"time"

	"dualpar/internal/sim"
)

// TestDriveModelPinned pins the drive model's arithmetic: exact Breakdown
// values for each cost path, on the default drive and on the 8 GB drive the
// tests use, plus one SSD read and one write. A changed constant or a
// reordered float expression fails here rather than as golden drift.
func TestDriveModelPinned(t *testing.T) {
	for _, c := range []struct {
		name                         string
		capacity, head, lbn, sectors int64
		want                         Breakdown
	}{
		{"no seek", DefaultSectors, 4096, 4096, 64, Breakdown{100000, 0, 0, 364088}},
		{"streamed skip", DefaultSectors, 4096, 4096 + 512, 16, Breakdown{100000, 2912711, 0, 91022}},
		{"short seek", DefaultSectors, 4096, 4096 + 513, 8, Breakdown{100000, 505875, 4166666, 45511}},
		{"backward seek", DefaultSectors, 1 << 20, 1<<20 - 5000, 8, Breakdown{100000, 518342, 4166666, 45511}},
		{"full stroke", DefaultSectors, 0, DefaultSectors - 8, 8, Breakdown{100000, 8999999, 4166666, 45511}},
		{"multi-sector", DefaultSectors, 1 << 16, 1 << 22, 2048, Breakdown{100000, 1027083, 4166666, 11650844}},
		// 9 sectors take a whole number of nanoseconds at 90 MB/s, so a
		// rate off by one byte per second truncates to one less.
		{"whole-ns stream", DefaultSectors, 4096, 4096 + 9, 9, Breakdown{100000, 51200, 0, 51200}},
		{"no seek", 1 << 24, 4096, 4096, 64, Breakdown{100000, 0, 0, 364088}},
		{"streamed skip", 1 << 24, 4096, 4096 + 512, 16, Breakdown{100000, 2912711, 0, 91022}},
		{"short seek", 1 << 24, 4096, 4096 + 513, 8, Breakdown{100000, 547002, 4166666, 45511}},
		{"backward seek", 1 << 24, 1 << 20, 1<<20 - 5000, 8, Breakdown{100000, 646738, 4166666, 45511}},
		{"full stroke", 1 << 24, 0, 1<<24 - 8, 8, Breakdown{100000, 8999997, 4166666, 45511}},
		{"multi-sector", 1 << 24, 1 << 16, 1 << 22, 2048, Breakdown{100000, 4716666, 4166666, 11650844}},
	} {
		d := New(c.capacity)
		d.head = c.head
		if got := d.serve(c.lbn, c.sectors, false); got != c.want {
			t.Errorf("%s on %d sectors: %+v, want %+v", c.name, c.capacity, got, c.want)
		}
	}

	k := sim.NewKernel(1)
	s := NewSSD()
	var rd, wr Breakdown
	k.Spawn("ssd", func(p *sim.Proc) {
		rd = s.Access(p, 1000, 100, false)
		wr = s.Access(p, 5000, 100, true)
	})
	k.Run()
	if want := (Breakdown{Overhead: 80 * time.Microsecond, Transfer: 204800}); rd != want {
		t.Errorf("ssd read: %+v, want %+v", rd, want)
	}
	if want := (Breakdown{Overhead: 200 * time.Microsecond, Transfer: 204800}); wr != want {
		t.Errorf("ssd write: %+v, want %+v", wr, want)
	}
}
