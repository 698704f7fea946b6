package workloads

import (
	"strings"
	"testing"
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
