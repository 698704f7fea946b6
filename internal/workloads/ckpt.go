package workloads

import (
	"fmt"
	"strconv"
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

// file names the file rank r writes: the shared file (N-1) or the rank's
// private one (N-N).
func (c EpochCheckpoint) file(r int) string {
	if c.Shared {
		return c.BaseName
	}
	return c.BaseName + ".r" + strconv.Itoa(r)
}

// block returns the region of its file that rank r writes for epoch e
// (1-based). Epoch regions never overlap, so no epoch's data is ever
// overwritten by a later one.
func (c EpochCheckpoint) block(r, e int) ext.Extent {
	if c.Shared {
		epochBase := int64(e-1) * int64(c.Procs) * c.BlockBytes
		return ext.Extent{Off: epochBase + int64(r)*c.BlockBytes, Len: c.BlockBytes}
	}
	return ext.Extent{Off: int64(e-1) * c.BlockBytes, Len: c.BlockBytes}
}

// Files implements Program.
func (c EpochCheckpoint) Files() []FileSpec {
	if c.Shared {
		return []FileSpec{{Name: c.BaseName, Size: 0}}
	}
	specs := make([]FileSpec, c.Procs)
	for r := 0; r < c.Procs; r++ {
		specs[r] = FileSpec{Name: c.file(r), Size: 0}
	}
	return specs
}

// NewRank implements Program.
func (c EpochCheckpoint) NewRank(r int) RankGen {
	if c.BaseName == "" {
		panic("workloads: EpochCheckpoint.BaseName empty")
	}
	// Extent e is the rank's block of epoch e+1.
	blocks := tabulate(int64(c.Epochs), func(e int64) ext.Extent { return c.block(r, int(e)+1) })
	return newCalls(script{
		kind: OpWrite, file: c.file(r), table: blocks, per: 1,
		compute: c.Interval, barrierEvery: 1, epoch: 1,
	})
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
	x := r.Ckpt.block(rank, r.Epoch)
	return newCalls(script{kind: OpRead, file: r.Ckpt.file(rank), table: []ext.Extent{x}, per: 1, epoch: r.Epoch})
}
