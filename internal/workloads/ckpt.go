package workloads

import (
	"fmt"
	"time"

	"dualpar/internal/ext"
)

// EpochCheckpoint is the crash-survivable checkpoint workload family: a
// barrier-synchronized loop of compute → checkpoint-write → seal → barrier,
// with every write tagged by a 1-based epoch so the host-side burst log and
// the restart phase can reason about durability per epoch. Like the plain
// Checkpoint program it never overwrites: each epoch writes its own region
// (N-1, at Checkpoint's offsets) or its own per-rank file slice (N-N), so
// the last committed epoch is always intact on the PFS regardless of where
// a crash lands.
//
// The two classic patterns are selectable with Shared:
//
//   - N-N (Shared=false): each rank owns a private file "<base>.r<rank>" and
//     appends one block per epoch — the pattern file-per-process
//     checkpointing libraries produce.
//   - N-1 (Shared=true): all ranks interleave unaligned blocks into one
//     shared file, PLFS-style, with each epoch occupying its own
//     Procs×BlockBytes region.
type EpochCheckpoint struct {
	Procs      int
	BlockBytes int64 // per-rank block per epoch (unaligned on purpose)
	Epochs     int
	Interval   time.Duration // solver time between checkpoints
	Shared     bool          // N-1 shared file when true, N-N per-rank files otherwise
	BaseName   string        // shared-file name (N-1) or per-rank prefix (N-N)
}

// DefaultEpochCheckpoint mirrors DefaultCheckpoint's unaligned 47 KB blocks.
func DefaultEpochCheckpoint(shared bool) EpochCheckpoint {
	return EpochCheckpoint{
		Procs:      64,
		BlockBytes: 47 << 10,
		Epochs:     8,
		Interval:   100 * time.Millisecond,
		Shared:     shared,
		BaseName:   "ckpt.dat",
	}
}

// Name implements Program.
func (c EpochCheckpoint) Name() string {
	if c.Shared {
		return "ckpt-n1"
	}
	return "ckpt-nn"
}

// Ranks implements Program.
func (c EpochCheckpoint) Ranks() int { return c.Procs }

// TotalBytes is the volume written across all epochs.
func (c EpochCheckpoint) TotalBytes() int64 {
	return int64(c.Procs) * c.BlockBytes * int64(c.Epochs)
}

// rankFile names rank r's private checkpoint file (N-N pattern).
func (c EpochCheckpoint) rankFile(r int) string {
	return fmt.Sprintf("%s.r%d", c.BaseName, r)
}

// extent returns the region rank r writes for epoch e (1-based), and the
// file holding it. Epoch regions never overlap, so no epoch's data is ever
// overwritten by a later one.
func (c EpochCheckpoint) extent(r, e int) (string, ext.Extent) {
	if c.Shared {
		epochBase := int64(e-1) * int64(c.Procs) * c.BlockBytes
		return c.BaseName, ext.Extent{Off: epochBase + int64(r)*c.BlockBytes, Len: c.BlockBytes}
	}
	return c.rankFile(r), ext.Extent{Off: int64(e-1) * c.BlockBytes, Len: c.BlockBytes}
}

// Files implements Program.
func (c EpochCheckpoint) Files() []FileSpec {
	if c.Shared {
		return []FileSpec{{Name: c.BaseName, Size: 0}}
	}
	specs := make([]FileSpec, c.Procs)
	for r := 0; r < c.Procs; r++ {
		specs[r] = FileSpec{Name: c.rankFile(r), Size: 0}
	}
	return specs
}

// NewRank implements Program.
func (c EpochCheckpoint) NewRank(r int) RankGen {
	if c.BaseName == "" {
		panic("workloads: EpochCheckpoint.BaseName empty")
	}
	return &epochCkptGen{c: c, rank: r}
}

type epochCkptGen struct {
	c     EpochCheckpoint
	rank  int
	epoch int // epochs completed (the in-progress epoch is epoch+1)
	state int // 0 compute, 1 write, 2 seal, 3 barrier
}

func (g *epochCkptGen) Next(env Env) Op {
	c := g.c
	if g.epoch >= c.Epochs {
		return Op{Kind: OpDone}
	}
	e := g.epoch + 1
	switch g.state {
	case 0:
		g.state = 1
		if c.Interval > 0 {
			return Op{Kind: OpCompute, Dur: c.Interval}
		}
		fallthrough
	case 1:
		g.state = 2
		file, x := c.extent(g.rank, e)
		return Op{Kind: OpWrite, File: file, Extents: []ext.Extent{x}, Epoch: e}
	case 2:
		g.state = 3
		return Op{Kind: OpSeal, Epoch: e}
	default:
		g.state = 0
		g.epoch++
		return Op{Kind: OpBarrier}
	}
}

func (g *epochCkptGen) Clone() RankGen {
	cp := *g
	return &cp
}

// Restart is the recovery-phase reader: every rank of the crashed
// EpochCheckpoint job reads back its own block of the recovered epoch. The
// harness constructs it from the original spec plus the last committed epoch
// reported after crash recovery, and the integrity oracle then verifies the
// read bytes carry the version stamps the epoch's writes produced.
type Restart struct {
	Ckpt  EpochCheckpoint
	Epoch int // 1-based committed epoch to read back
}

// Name implements Program.
func (r Restart) Name() string { return r.Ckpt.Name() + "-restart" }

// Ranks implements Program.
func (r Restart) Ranks() int { return r.Ckpt.Procs }

// Files implements Program. The checkpoint files already exist; nothing is
// pre-created.
func (r Restart) Files() []FileSpec { return nil }

// NewRank implements Program.
func (r Restart) NewRank(rank int) RankGen {
	if r.Epoch < 1 || r.Epoch > r.Ckpt.Epochs {
		panic(fmt.Sprintf("workloads: Restart epoch %d outside [1,%d]", r.Epoch, r.Ckpt.Epochs))
	}
	return &restartGen{r: r, rank: rank}
}

type restartGen struct {
	r    Restart
	rank int
	done bool
}

func (g *restartGen) Next(env Env) Op {
	if g.done {
		return Op{Kind: OpDone}
	}
	g.done = true
	file, x := g.r.Ckpt.extent(g.rank, g.r.Epoch)
	return Op{Kind: OpRead, File: file, Extents: []ext.Extent{x}, Epoch: g.r.Epoch}
}

func (g *restartGen) Clone() RankGen {
	cp := *g
	return &cp
}
