package workloads

import (
	"time"

	"dualpar/internal/ext"
)

// BTIO models the NAS BT-IO benchmark (§V-A): the solver alternates compute
// steps with writes of the solution array. Each rank's footprint in a step
// is a fine-grained interleaving whose block size shrinks as process count
// grows — the paper reports 4-byte requests at 256 processes; we use
// BlockScale/P (BlockScale default 1024, giving 64 B at 16 procs, 16 B at
// 64, 4 B at 256).
type BTIO struct {
	Procs       int
	TotalBytes  int64 // volume written over all steps
	Steps       int
	BlockScale  int64 // per-rank block = BlockScale / Procs bytes
	StepCompute time.Duration
	Read        bool // read the array back instead of writing (btio read phase)
	FileName    string
}

// DefaultBTIO matches the paper's class-C run shape with scaled volume.
func DefaultBTIO() BTIO {
	return BTIO{
		Procs:       64,
		TotalBytes:  8 << 20,
		Steps:       4,
		BlockScale:  1024,
		StepCompute: 50 * time.Millisecond,
		FileName:    "btio.dat",
	}
}

// Name implements Program.
func (b BTIO) Name() string { return "btio" }

// Ranks implements Program.
func (b BTIO) Ranks() int { return b.Procs }

// BlockBytes is the per-rank interleave block.
func (b BTIO) BlockBytes() int64 {
	return max(b.BlockScale/int64(b.Procs), 4)
}

// StepBytes is the volume written per step across all ranks.
func (b BTIO) StepBytes() int64 {
	// Round to a whole number of interleave rounds, at least one.
	round := b.BlockBytes() * int64(b.Procs)
	return max(b.TotalBytes/int64(b.Steps), round) / round * round
}

// Files implements Program.
func (b BTIO) Files() []FileSpec {
	return []FileSpec{{
		Name:      b.FileName,
		Size:      b.StepBytes() * int64(b.Steps),
		Precreate: b.Read,
	}}
}

// NewRank implements Program.
func (b BTIO) NewRank(r int) RankGen {
	if b.FileName == "" {
		panic("workloads: BTIO.FileName empty")
	}
	// A call is one step: rounds blocks of bl bytes at stride bl*Procs.
	// Extent s*rounds+i is step s, round i.
	bl := b.BlockBytes()
	round := bl * int64(b.Procs)
	rounds := b.StepBytes() / round
	blocks := tabulate(int64(b.Steps)*rounds, func(i int64) ext.Extent {
		return ext.Extent{Off: i*round + int64(r)*bl, Len: bl}
	})
	return newCalls(script{
		kind: ioKind(!b.Read), file: b.FileName, table: blocks,
		per: int(rounds), compute: b.StepCompute, barrierEvery: 1,
	})
}
