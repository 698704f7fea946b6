package workloads

import (
	"time"

	"dualpar/internal/ext"
)

// Noncontig models Argonne's noncontig benchmark (§V-A): the file is a 2-D
// array of Cols columns; rank r reads column r with a vector-derived type
// (ElmtCount 4-byte ints per cell, so the column width is ElmtCount*4).
// Each call moves a fixed amount of data across all processes (4 MB in the
// paper's collective runs).
type Noncontig struct {
	Procs        int
	ElmtCount    int64
	FileBytes    int64
	BytesPerCall int64 // total across all ranks per call
	Write        bool
	ComputePerOp time.Duration
	FileName     string
}

// DefaultNoncontig matches §V-A: 64 columns, 4 MB per collective call.
func DefaultNoncontig() Noncontig {
	return Noncontig{
		Procs:        64,
		ElmtCount:    512, // 2 KB cells
		FileBytes:    256 << 20,
		BytesPerCall: 4 << 20,
		FileName:     "noncontig.dat",
	}
}

// Name implements Program.
func (n Noncontig) Name() string { return "noncontig" }

// Ranks implements Program.
func (n Noncontig) Ranks() int { return n.Procs }

// CellBytes is the width of one column cell.
func (n Noncontig) CellBytes() int64 { return n.ElmtCount * 4 }

// RowBytes is the width of one full row (all columns).
func (n Noncontig) RowBytes() int64 { return n.CellBytes() * int64(n.Procs) }

// Rows is the number of rows in the array.
func (n Noncontig) Rows() int64 { return n.FileBytes / n.RowBytes() }

// RowsPerCall is how many rows one call covers.
func (n Noncontig) RowsPerCall() int64 {
	per := n.BytesPerCall / n.RowBytes()
	if per < 1 {
		per = 1
	}
	return per
}

// Files implements Program.
func (n Noncontig) Files() []FileSpec {
	return []FileSpec{{Name: n.FileName, Size: n.Rows() * n.RowBytes(), Precreate: !n.Write}}
}

// NewRank implements Program.
func (n Noncontig) NewRank(r int) RankGen {
	if n.FileName == "" {
		panic("workloads: Noncontig.FileName empty")
	}
	cell, rowBytes := n.CellBytes(), n.RowBytes()
	// Extent i is the rank's cell of row i.
	cells := tabulate(n.Rows(), func(row int64) ext.Extent {
		return ext.Extent{Off: row*rowBytes + int64(r)*cell, Len: cell}
	})
	return &noncontigGen{n: n, cells: cells}
}

type noncontigGen struct {
	n       Noncontig
	cells   []ext.Extent // shared with clones
	row     int64
	pending bool
}

func (g *noncontigGen) Next(env Env) Op {
	n := g.n
	rows := int64(len(g.cells))
	if g.row >= rows {
		return Op{Kind: OpDone}
	}
	if n.ComputePerOp > 0 && !g.pending {
		g.pending = true
		return Op{Kind: OpCompute, Dur: n.ComputePerOp}
	}
	g.pending = false
	lo := g.row
	g.row = min(g.row+n.RowsPerCall(), rows)
	kind := OpRead
	if n.Write {
		kind = OpWrite
	}
	return Op{Kind: kind, File: n.FileName, Extents: span(g.cells, lo, g.row)}
}

func (g *noncontigGen) Clone() RankGen {
	cp := *g
	return &cp
}
