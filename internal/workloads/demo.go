package workloads

import (
	"time"

	"dualpar/internal/ext"
)

// Demo is the paper's motivating synthetic program (§II): N processes read
// a file from beginning to end; in each MPI-IO call a process reads
// SegsPerCall noncontiguous segments (the paper's vector datatype) — rank
// r's k-th segment of call j sits at segment index (j*SegsPerCall+k)*N + r.
// The compute time between calls tunes the I/O ratio.
type Demo struct {
	Procs          int
	FileBytes      int64
	SegBytes       int64
	SegsPerCall    int
	ComputePerCall time.Duration
	Write          bool
	FileName       string
}

// DefaultDemo matches §II: 8 processes, 16 segments per call, 4 KB
// segments.
func DefaultDemo() Demo {
	return Demo{
		Procs:       8,
		FileBytes:   64 << 20,
		SegBytes:    4 << 10,
		SegsPerCall: 16,
		FileName:    "demo.dat",
	}
}

// Name implements Program.
func (d Demo) Name() string { return "demo" }

// Ranks implements Program.
func (d Demo) Ranks() int { return d.Procs }

// Files implements Program.
func (d Demo) Files() []FileSpec {
	return []FileSpec{{Name: d.FileName, Size: d.FileBytes, Precreate: !d.Write}}
}

// Calls returns the number of I/O calls each rank performs.
func (d Demo) Calls() int {
	perCallBytes := int64(d.Procs) * d.SegBytes * int64(d.SegsPerCall)
	return int(d.FileBytes / perCallBytes)
}

// NewRank implements Program.
func (d Demo) NewRank(r int) RankGen {
	if d.FileName == "" {
		panic("workloads: Demo.FileName empty")
	}
	// Extent i is the rank's i-th segment: call i/SegsPerCall, segment
	// i%SegsPerCall.
	n := int64(d.Procs)
	segs := tabulate(int64(d.Calls())*int64(d.SegsPerCall), func(i int64) ext.Extent {
		return ext.Extent{Off: (i*n + int64(r)) * d.SegBytes, Len: d.SegBytes}
	})
	return newCalls(script{
		kind: ioKind(d.Write), file: d.FileName, table: segs,
		per: d.SegsPerCall, compute: d.ComputePerCall,
	})
}
