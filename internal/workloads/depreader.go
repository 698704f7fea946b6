package workloads

import (
	"time"

	"dualpar/internal/ext"
)

// DependentReader is the adversarial program of Table III: every read's
// offset is derived from the data returned by the previous read, so
// pre-execution cannot predict future requests — a ghost sees zeros for
// unserved reads and produces distinct wrong offsets, so everything DualPar
// prefetches for it is mis-prefetched.
type DependentReader struct {
	Procs        int
	FileBytes    int64
	ReqBytes     int64
	CallsPerRank int
	ComputePerOp time.Duration
	FileName     string
}

// DefaultDependentReader uses Table III's shape at simulation scale.
func DefaultDependentReader() DependentReader {
	return DependentReader{
		Procs:        16,
		FileBytes:    64 << 20,
		ReqBytes:     64 << 10,
		CallsPerRank: 64,
		FileName:     "depreader.dat",
	}
}

// Name implements Program.
func (d DependentReader) Name() string { return "dependent-reader" }

// Ranks implements Program.
func (d DependentReader) Ranks() int { return d.Procs }

// Files implements Program.
func (d DependentReader) Files() []FileSpec {
	return []FileSpec{{Name: d.FileName, Size: d.FileBytes, Precreate: true}}
}

// NewRank implements Program.
func (d DependentReader) NewRank(r int) RankGen {
	if d.FileName == "" {
		panic("workloads: DependentReader.FileName empty")
	}
	// Each rank starts its chain at a distinct offset.
	start := alignDown(int64(r)*(d.FileBytes/int64(d.Procs)), d.ReqBytes)
	return &depGen{d: d, rank: r, prev: -1, start: start}
}

type depGen struct {
	d       DependentReader
	rank    int
	prev    int64 // offset of the previous read; -1 before the first
	start   int64
	call    int
	pending bool
}

func (g *depGen) Next(env Env) Op {
	d := g.d
	if g.call >= d.CallsPerRank {
		return Op{Kind: OpDone}
	}
	if d.ComputePerOp > 0 && !g.pending {
		g.pending = true
		return Op{Kind: OpCompute, Dur: d.ComputePerOp}
	}
	g.pending = false
	g.call++
	// This read's offset depends on the first word of the *previous*
	// read's data: only a process that actually received that data can
	// follow the chain. A ghost whose recorded reads were never served
	// sees value 0 and derives wrong (but call-distinct) offsets.
	var off int64
	if g.prev < 0 {
		off = g.start
	} else {
		v := env.Value(d.FileName, g.prev)
		seed := v ^ int64(g.call)<<32 ^ int64(g.rank)<<16
		off = alignDown(Content("depreader-chain", seed)%(d.FileBytes-d.ReqBytes), d.ReqBytes)
	}
	g.prev = off
	return Op{Kind: OpRead, File: d.FileName, Extents: []ext.Extent{{Off: off, Len: d.ReqBytes}}}
}

func (g *depGen) Clone(into RankGen) RankGen { return CloneInto(g, into) }
