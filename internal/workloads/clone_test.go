package workloads

import (
	"reflect"
	"strings"
	"testing"
)

// cloneKinds returns one program per generator kind: the scripted
// callGen, s3asim, the dependent reader and trace replay.
func cloneKinds(t testing.TB) []Program {
	rep, err := ParseTrace("t", strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	return []Program{DefaultNoncontig(), DefaultS3asim(), DefaultDependentReader(), rep}
}

// advanced returns prog's rank r generator after n ops.
func advanced(prog Program, r, n int) RankGen {
	g := prog.NewRank(r)
	for range n {
		g.Next(TrueEnv{})
	}
	return g
}

// TestCloneIntoReusesSameKind: a clone into a used generator of the same
// kind reuses it and drains the same op stream as a fresh clone; into of
// another kind is left alone and the clone allocates; a same-kind clone
// allocates nothing.
func TestCloneIntoReusesSameKind(t *testing.T) {
	progs := cloneKinds(t)
	for i, prog := range progs {
		g := advanced(prog, 0, 2)
		want := drain(t, g.Clone(nil), 1<<20)

		into := advanced(prog, prog.Ranks()-1, 5)
		if c := g.Clone(into); c != into {
			t.Errorf("%s: clone into a used generator of its kind did not reuse it", prog.Name())
		} else if got := drain(t, c, 1<<20); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: clone into a used generator yields %d ops that differ from a fresh clone's %d",
				prog.Name(), len(got), len(want))
		}

		other := advanced(progs[(i+1)%len(progs)], 0, 1)
		otherNext := other.Clone(nil).Next(TrueEnv{})
		if c := g.Clone(other); c == other {
			t.Errorf("%s: clone into a %T reused it", prog.Name(), other)
		} else if got := drain(t, c, 1<<20); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: clone into another kind yields %d ops that differ from a fresh clone's %d",
				prog.Name(), len(got), len(want))
		}
		if op := other.Next(TrueEnv{}); !reflect.DeepEqual(op, otherNext) {
			t.Errorf("%s: clone into a %T disturbed it", prog.Name(), other)
		}

		into = g.Clone(nil)
		if n := testing.AllocsPerRun(100, func() { into = g.Clone(into) }); n != 0 {
			t.Errorf("%s: same-kind clone allocates %v times", prog.Name(), n)
		}
	}
}

var cloneSink RankGen

// BenchmarkGhostClone is a ghost fork's clone: a noncontig rank's
// generator cloned into the generator the previous ghost left behind.
func BenchmarkGhostClone(b *testing.B) {
	g := advanced(DefaultNoncontig(), 3, 17)
	cloneSink = g.Clone(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = g.Clone(cloneSink)
	}
}
