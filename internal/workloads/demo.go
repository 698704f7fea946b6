package workloads

import (
	"fmt"
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
	return &demoGen{d: d, rank: r, segs: segs, calls: d.Calls()}
}

type demoGen struct {
	d       Demo
	rank    int
	segs    []ext.Extent // shared with clones
	calls   int
	call    int
	pending bool // compute emitted, I/O next
}

func (g *demoGen) Next(env Env) Op {
	if g.call >= g.calls {
		return Op{Kind: OpDone}
	}
	if g.d.ComputePerCall > 0 && !g.pending {
		g.pending = true
		return Op{Kind: OpCompute, Dur: g.d.ComputePerCall}
	}
	g.pending = false
	lo := int64(g.call) * int64(g.d.SegsPerCall)
	g.call++
	kind := OpRead
	if g.d.Write {
		kind = OpWrite
	}
	return Op{Kind: kind, File: g.d.FileName, Extents: span(g.segs, lo, lo+int64(g.d.SegsPerCall))}
}

func (g *demoGen) Clone() RankGen {
	cp := *g
	return &cp
}

// String aids debugging.
func (g *demoGen) String() string {
	return fmt.Sprintf("demo[rank=%d call=%d/%d]", g.rank, g.call, g.calls)
}
