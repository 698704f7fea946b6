package workloads

import (
	"slices"
	"strings"
	"testing"

	"dualpar/internal/ext"
)

func TestRegistryBuildsEveryWorkload(t *testing.T) {
	reg := Workloads()
	seen := map[string]bool{}
	for _, w := range reg {
		if seen[w.Name] {
			t.Fatalf("duplicate workload %q", w.Name)
		}
		seen[w.Name] = true
		p := w.Build(Params{Procs: 4, Bytes: 4 << 20})
		if p.Ranks() != 4 {
			t.Errorf("%s: %d ranks, want 4", w.Name, p.Ranks())
		}
		// The dependent reader's CLI name is the one abbreviation.
		if p.Name() != w.Name && p.Name() != "dependent-reader" {
			t.Errorf("%s builds a program named %q", w.Name, p.Name())
		}
		if d := w.Build(Params{Bytes: 4 << 20}); d.Ranks() <= 0 {
			t.Errorf("%s: zero Procs left %d ranks, want the default", w.Name, d.Ranks())
		}
	}
	if _, err := reg.Lookup("nope"); err == nil || err.Error() != `unknown workload "nope"` {
		t.Errorf("Lookup of an unknown name: %v", err)
	}
	if got := reg.Names(); !strings.HasPrefix(got, "demo|mpi-io-test|") || strings.Count(got, "|") != len(reg)-1 {
		t.Errorf("Names() = %q", got)
	}
}

func TestRegistryLabels(t *testing.T) {
	reg := Workloads()
	for name, want := range map[string][2]string{
		"demo":       {"read", "write"},
		"btio":       {"write", "write"},
		"checkpoint": {"write", "write"},
		"ckpt-nn":    {"write", "write"},
		"s3asim":     {"read+write", "read+write"},
	} {
		w, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if r, wr := w.RW(false), w.RW(true); r != want[0] || wr != want[1] {
			t.Errorf("%s: RW = %q/%q, want %q/%q", name, r, wr, want[0], want[1])
		}
	}
}

func TestInstancedRenamesDataFile(t *testing.T) {
	inst := Workloads().Instanced()
	if got := inst.Names(); got != "demo|mpi-io-test|hpio|noncontig" {
		t.Fatalf("Instanced().Names() = %q", got)
	}
	for _, w := range inst {
		p := w.Build(Params{Bytes: 1 << 20, FileName: "copy-1.dat"})
		if fs := p.Files(); len(fs) != 1 || fs[0].Name != "copy-1.dat" {
			t.Errorf("%s: files %+v, want copy-1.dat", w.Name, fs)
		}
	}
}

// Every registered generator, and a Clone of it taken after its first op,
// leaves the extent slices it already returned untouched: consumers keep
// them by reference (Op.Extents). Original and clone run interleaved, so a
// buffer they share would show too.
func TestGeneratorsNeverRewriteReturnedExtents(t *testing.T) {
	type kept struct {
		got  []ext.Extent // the returned slice
		want []ext.Extent // a copy taken when it was returned
	}
	for _, w := range Workloads() {
		prog := w.Build(Params{Procs: 4, Bytes: 16 << 20})
		for r := 0; r < prog.Ranks(); r++ {
			var log []kept
			next := func(g RankGen) bool {
				op := g.Next(TrueEnv{})
				if len(op.Extents) > 0 {
					log = append(log, kept{op.Extents, slices.Clone(op.Extents)})
				}
				return op.Kind != OpDone
			}
			g := prog.NewRank(r)
			next(g)
			c := g.Clone(nil)
			for ops, gOn, cOn := 0, true, true; gOn || cOn; ops++ {
				if ops > 1_000_000 {
					t.Fatalf("%s rank %d: no end after %d ops", w.Name, r, ops)
				}
				if gOn {
					gOn = next(g)
				}
				if cOn {
					cOn = next(c)
				}
			}
			if len(log) < 2 {
				t.Fatalf("%s rank %d: %d I/O ops, too few to check", w.Name, r, len(log))
			}
			for i, k := range log {
				if !slices.Equal(k.got, k.want) {
					t.Fatalf("%s rank %d: op %d's extents were rewritten: %v, returned as %v",
						w.Name, r, i, k.got, k.want)
				}
			}
		}
	}
}
