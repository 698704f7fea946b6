package workloads

import (
	"time"

	"dualpar/internal/ext"
)

// HPIO models the Northwestern/Sandia hpio benchmark configured as in §V-A:
// contiguous-ish data access shaped by region count, region spacing, and
// region size. Regions are partitioned blockwise across processes; each call
// accesses one region (regions of one rank are contiguous up to the
// inter-region spacing).
type HPIO struct {
	Procs         int
	RegionCount   int64 // total regions across all ranks
	RegionBytes   int64
	RegionSpacing int64
	Write         bool
	ComputePerOp  time.Duration
	FileName      string
}

// DefaultHPIO matches §V-A: region size 32 KB, spacing 1 KB (region count
// scaled).
func DefaultHPIO() HPIO {
	return HPIO{
		Procs:         64,
		RegionCount:   4096,
		RegionBytes:   32 << 10,
		RegionSpacing: 1 << 10,
		FileName:      "hpio.dat",
	}
}

// Name implements Program.
func (h HPIO) Name() string { return "hpio" }

// Ranks implements Program.
func (h HPIO) Ranks() int { return h.Procs }

// stride is the file-space footprint of one region.
func (h HPIO) stride() int64 { return h.RegionBytes + h.RegionSpacing }

// TotalBytes is the transferred volume.
func (h HPIO) TotalBytes() int64 { return h.RegionCount * h.RegionBytes }

// Files implements Program.
func (h HPIO) Files() []FileSpec {
	return []FileSpec{{Name: h.FileName, Size: h.RegionCount * h.stride(), Precreate: !h.Write}}
}

// NewRank implements Program.
func (h HPIO) NewRank(r int) RankGen {
	if h.FileName == "" {
		panic("workloads: HPIO.FileName empty")
	}
	// Extent i is the rank's i-th region; the rank's regions are a block
	// of per consecutive ones.
	per := h.RegionCount / int64(h.Procs)
	first := int64(r) * per
	regions := tabulate(per, func(i int64) ext.Extent {
		return ext.Extent{Off: (first + i) * h.stride(), Len: h.RegionBytes}
	})
	return newCalls(script{
		kind: ioKind(h.Write), file: h.FileName, table: regions, per: 1,
		compute: h.ComputePerOp,
	})
}
