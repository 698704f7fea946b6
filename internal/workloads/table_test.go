package workloads

import (
	"reflect"
	"testing"
	"time"
)

// scriptPrograms are the programs that run as one script over a table
// built by NewRank, with computation between calls where the program has
// it, so the compute/I/O/seal/barrier phases are part of what a clone
// must carry.
func scriptPrograms() []Program {
	n := DefaultNoncontig()
	n.ComputePerOp = time.Millisecond
	m := DefaultMPIIOTest()
	m.ComputePerOp = time.Millisecond
	d := DefaultDemo()
	d.ComputePerCall = time.Millisecond
	i := DefaultIOR()
	i.ComputePerOp = time.Millisecond
	h := DefaultHPIO()
	h.ComputePerOp = time.Millisecond
	b := DefaultBTIO()
	b.Procs, b.TotalBytes = 8, 1<<20
	n1, nn := DefaultEpochCheckpoint(true), DefaultEpochCheckpoint(false)
	return []Program{n, m, d, DefaultCheckpoint(), i, h, b, n1, nn, Restart{Ckpt: nn, Epoch: 2}}
}

// TestTabulatedClonesReplayTheRank: a Clone taken at any op boundary
// yields exactly the ops the original yields from there on, extents
// included, while the original keeps going.
func TestTabulatedClonesReplayTheRank(t *testing.T) {
	for _, prog := range scriptPrograms() {
		for _, r := range []int{0, prog.Ranks() - 1} {
			g := prog.NewRank(r)
			ops := drain(t, prog.NewRank(r), 1<<20)
			for k := 0; k <= len(ops); k++ {
				got := drain(t, g.Clone(nil), 1<<20)
				if want := ops[k:]; len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("%s rank %d: clone at op %d yields %d ops that differ from the original's %d",
						prog.Name(), r, k, len(got), len(want))
				}
				if op := g.Next(TrueEnv{}); k < len(ops) && !reflect.DeepEqual(op, ops[k]) {
					t.Fatalf("%s rank %d: op %d is %+v after clones ran, want %+v", prog.Name(), r, k, op, ops[k])
				}
			}
		}
	}
}

// TestTabulatedNextAllocatesNothing: once NewRank has built the table, a
// whole pass of Next (and so a ghost replaying a clone) allocates nothing.
func TestTabulatedNextAllocatesNothing(t *testing.T) {
	for _, prog := range scriptPrograms() {
		t.Run(prog.Name(), func(t *testing.T) {
			g := prog.NewRank(1)
			// AllocsPerRun calls the function runs+1 times; each call
			// drains a clone made beforehand.
			const runs = 3
			clones := make([]RankGen, runs+1)
			for i := range clones {
				clones[i] = g.Clone(nil)
			}
			var env Env = TrueEnv{}
			i := 0
			allocs := testing.AllocsPerRun(runs, func() {
				c := clones[i]
				i++
				for c.Next(env).Kind != OpDone {
				}
			})
			if allocs != 0 {
				t.Errorf("%s: a pass of Next allocates %.0f times, want 0", prog.Name(), allocs)
			}
		})
	}
}
