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
	return max(n.BytesPerCall/n.RowBytes(), 1)
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
	return newCalls(script{
		kind: ioKind(n.Write), file: n.FileName, table: cells,
		per: int(n.RowsPerCall()), compute: n.ComputePerOp,
	})
}
