package workloads

import (
	"testing"
	"time"

	"dualpar/internal/ext"
)

func TestEpochCheckpointN1RegionsDisjointAndCover(t *testing.T) {
	c := EpochCheckpoint{Procs: 4, BlockBytes: 47 << 10, Epochs: 3, Shared: true, BaseName: "ckpt.dat"}
	cov := coverage(t, c, OpWrite, 1000)
	want := ext.Extent{Off: 0, Len: c.TotalBytes()}
	if len(cov) != 1 || cov[0] != want {
		t.Fatalf("coverage = %v, want %v (epoch regions tile the file exactly)", cov, want)
	}
}

func TestEpochCheckpointNNPerRankFiles(t *testing.T) {
	c := EpochCheckpoint{Procs: 3, BlockBytes: 1 << 10, Epochs: 2, BaseName: "ckpt.dat"}
	files := c.Files()
	if len(files) != 3 {
		t.Fatalf("N-N Files() = %d specs, want one per rank", len(files))
	}
	for r := 0; r < c.Procs; r++ {
		ops := drain(t, c.NewRank(r), 1000)
		for _, op := range ops {
			if op.Kind == OpWrite && op.File != c.file(r) {
				t.Fatalf("rank %d wrote %q, want its private file %q", r, op.File, c.file(r))
			}
		}
		if got := ioBytes(ops, OpWrite); got != c.BlockBytes*int64(c.Epochs) {
			t.Fatalf("rank %d wrote %d bytes, want %d", r, got, c.BlockBytes*int64(c.Epochs))
		}
	}
}

func TestEpochCheckpointOpSequence(t *testing.T) {
	c := EpochCheckpoint{Procs: 2, BlockBytes: 100, Epochs: 2, Interval: time.Millisecond, Shared: true, BaseName: "f"}
	ops := drain(t, c.NewRank(1), 100)
	wantKinds := []OpKind{
		OpCompute, OpWrite, OpSeal, OpBarrier,
		OpCompute, OpWrite, OpSeal, OpBarrier,
	}
	if len(ops) != len(wantKinds) {
		t.Fatalf("got %d ops, want %d", len(ops), len(wantKinds))
	}
	epoch := 0
	for i, op := range ops {
		if op.Kind != wantKinds[i] {
			t.Fatalf("op %d kind = %v, want %v", i, op.Kind, wantKinds[i])
		}
		switch op.Kind {
		case OpWrite:
			epoch++
			if op.Epoch != epoch {
				t.Errorf("write %d tagged epoch %d, want %d", i, op.Epoch, epoch)
			}
		case OpSeal:
			if op.Epoch != epoch {
				t.Errorf("seal %d tagged epoch %d, want %d", i, op.Epoch, epoch)
			}
		case OpCompute, OpBarrier:
			if op.Epoch != 0 {
				t.Errorf("op %d (%v) carries epoch %d, want 0", i, op.Kind, op.Epoch)
			}
		}
	}
	// Zero interval skips the compute op entirely.
	c.Interval = 0
	ops = drain(t, c.NewRank(0), 100)
	if ops[0].Kind != OpWrite {
		t.Fatalf("zero-interval first op = %v, want OpWrite", ops[0].Kind)
	}
}

func TestRestartReadsCommittedEpochBlock(t *testing.T) {
	for _, shared := range []bool{true, false} {
		c := EpochCheckpoint{Procs: 4, BlockBytes: 47 << 10, Epochs: 5, Shared: shared, BaseName: "ckpt.dat"}
		r := Restart{Ckpt: c, Epoch: 3}
		if r.Ranks() != c.Procs {
			t.Fatalf("restart ranks = %d, want %d", r.Ranks(), c.Procs)
		}
		for rank := 0; rank < c.Procs; rank++ {
			ops := drain(t, r.NewRank(rank), 10)
			if len(ops) != 1 || ops[0].Kind != OpRead {
				t.Fatalf("shared=%v rank %d restart ops = %+v, want one read", shared, rank, ops)
			}
			wantFile, wantExt := c.file(rank), c.block(rank, 3)
			if ops[0].File != wantFile || len(ops[0].Extents) != 1 || ops[0].Extents[0] != wantExt {
				t.Fatalf("shared=%v rank %d read %q %v, want %q %v",
					shared, rank, ops[0].File, ops[0].Extents, wantFile, wantExt)
			}
			if ops[0].Epoch != 3 {
				t.Fatalf("restart read tagged epoch %d, want 3", ops[0].Epoch)
			}
		}
	}
}

func TestRestartRejectsBadEpoch(t *testing.T) {
	c := EpochCheckpoint{Procs: 2, BlockBytes: 100, Epochs: 3, BaseName: "f"}
	for _, epoch := range []int{0, -1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Restart accepted epoch %d outside [1,3]", epoch)
				}
			}()
			Restart{Ckpt: c, Epoch: epoch}.NewRank(0)
		}()
	}
}

func TestEpochCheckpointCloneIndependent(t *testing.T) {
	c := EpochCheckpoint{Procs: 2, BlockBytes: 100, Epochs: 3, Shared: true, BaseName: "f"}
	g := c.NewRank(0)
	g.Next(TrueEnv{}) // write (no interval)
	clone := g.Clone(nil)
	a, b := drain(t, g, 100), drain(t, clone, 100)
	if len(a) != len(b) {
		t.Fatalf("clone diverged: %d vs %d remaining ops", len(a), len(b))
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Epoch != b[i].Epoch {
			t.Fatalf("op %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestEpochCheckpointNewRankAllocs: a rank's file name is formatted once,
// not once per epoch, so an N-N rank costs its name, its block table and
// its script, like an N-1 rank plus the name.
func TestEpochCheckpointNewRankAllocs(t *testing.T) {
	for _, c := range []struct {
		shared bool
		max    float64
	}{{true, 2}, {false, 3}} {
		p := DefaultEpochCheckpoint(c.shared)
		if got := testing.AllocsPerRun(100, func() { p.NewRank(3) }); got > c.max {
			t.Errorf("%s NewRank: %v allocations, want <= %v", p.Name(), got, c.max)
		}
	}
}
