package workloads

import (
	"time"

	"dualpar/internal/ext"
)

// Checkpoint models N-1 checkpointing (the pattern PLFS, the paper's ref
// [13], was built for): at each barrier-synchronized checkpoint, every rank
// writes its state as interleaved, deliberately unaligned blocks of a
// single shared file. The unaligned block size (47 KB by default, PLFS's
// canonical example) defeats stripe alignment, which is exactly where
// request reordering and merging pay off.
type Checkpoint struct {
	Procs       int
	BlockBytes  int64 // per-rank block per checkpoint (unaligned on purpose)
	Checkpoints int
	Compute     time.Duration // solver time between checkpoints
	FileName    string
}

// DefaultCheckpoint uses PLFS's famously unaligned 47 KB blocks.
func DefaultCheckpoint() Checkpoint {
	return Checkpoint{
		Procs:       64,
		BlockBytes:  47 << 10,
		Checkpoints: 8,
		Compute:     100 * time.Millisecond,
		FileName:    "checkpoint.dat",
	}
}

// Name implements Program.
func (c Checkpoint) Name() string { return "checkpoint" }

// Ranks implements Program.
func (c Checkpoint) Ranks() int { return c.Procs }

// TotalBytes is the volume written across all checkpoints.
func (c Checkpoint) TotalBytes() int64 {
	return int64(c.Procs) * c.BlockBytes * int64(c.Checkpoints)
}

// Files implements Program.
func (c Checkpoint) Files() []FileSpec {
	return []FileSpec{{Name: c.FileName, Size: 0}}
}

// NewRank implements Program.
func (c Checkpoint) NewRank(r int) RankGen {
	if c.FileName == "" {
		panic("workloads: Checkpoint.FileName empty")
	}
	// Checkpoint s, rank r writes [stepBase + r*Block, +Block): the ranks'
	// blocks tile the file contiguously but unaligned to any stripe or page
	// boundary.
	blocks := tabulate(int64(c.Checkpoints), func(s int64) ext.Extent {
		stepBase := s * int64(c.Procs) * c.BlockBytes
		return ext.Extent{Off: stepBase + int64(r)*c.BlockBytes, Len: c.BlockBytes}
	})
	return newCalls(script{
		kind: OpWrite, file: c.FileName, table: blocks, per: 1,
		compute: c.Compute, barrierEvery: 1,
	})
}
