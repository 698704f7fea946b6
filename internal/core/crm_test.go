package core

import (
	"fmt"
	"testing"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// TestWritebackOnlyCycleClosesMisPrefetchSample is the regression test for
// the sample-accounting bug: the mis-prefetch sample used to close only
// when the cycle carried a prefetch wish list, so writeback-only cycles
// (write-quota suspensions) let consumedCycle accumulate across cycles and
// skew the next ratio.
func TestWritebackOnlyCycleClosesMisPrefetchSample(t *testing.T) {
	cl := smallCluster(1)
	r := NewRunner(cl, DefaultConfig())
	pr := r.Add(smallMPIIOTest(true), ModeDataDriven, AddOptions{RanksPerNode: 4})
	pr.prefetchedCycle = 100
	pr.consumedCycle = 40
	done := false
	cl.K.Spawn("test", func(p *sim.Proc) {
		pr.crmServe(p, &fileExtents{}) // writeback-only: no wish list
		done = true
	})
	cl.K.RunUntil(time.Minute)
	if !done {
		t.Fatal("crmServe did not return")
	}
	if len(pr.misSamples) != 1 || pr.misSamples[0] != 0.6 {
		t.Fatalf("misSamples = %v, want [0.6]", pr.misSamples)
	}
	if pr.consumedCycle != 0 || pr.prefetchedCycle != 0 {
		t.Fatalf("cycle counters not reset: consumed=%d prefetched=%d",
			pr.consumedCycle, pr.prefetchedCycle)
	}
}

// A write-heavy program whose prefetches go entirely unconsumed must trip
// PEC's fast path even when every served cycle is writeback-only.
func TestWriteHeavyCyclesTripFastPath(t *testing.T) {
	cl := smallCluster(1)
	cfg := DefaultConfig()
	r := NewRunner(cl, cfg)
	pr := r.Add(smallMPIIOTest(true), ModeDataDriven, AddOptions{RanksPerNode: 4})
	cl.K.Spawn("test", func(p *sim.Proc) {
		for i := 0; i < misCyclesToDisable; i++ {
			pr.prefetchedCycle = 1 << 20
			pr.consumedCycle = 0
			pr.crmServe(p, &fileExtents{})
		}
	})
	cl.K.RunUntil(time.Minute)
	if !pr.disabled {
		t.Fatalf("%d all-waste writeback-only cycles did not disable data-driven mode",
			misCyclesToDisable)
	}
	if pr.dataDriven {
		t.Fatal("data-driven mode still on after fast-path disable")
	}
}

// TestClipToFileTracksGrownFile is the regression test for the prefetch
// clipping bug: clipToFile used to bound extents by the workload-declared
// static size only, dropping the prefetchable tail of a file grown past
// its declaration by writebacks.
func TestClipToFileTracksGrownFile(t *testing.T) {
	cl := smallCluster(1)
	r := NewRunner(cl, DefaultConfig())
	m := smallMPIIOTest(true)
	pr := r.Add(m, ModeDataDriven, AddOptions{RanksPerNode: 4})
	static := m.FileBytes
	grown := static + (1 << 20)
	cl.K.Spawn("grow", func(p *sim.Proc) {
		clnt := cl.FS.Client(cl.ComputeNodes()[0])
		clnt.Write(p, m.FileName, []ext.Extent{{Off: grown - 4096, Len: 4096}}, 1, obs.Ctx{})
	})
	cl.K.RunUntil(time.Minute)
	if got := cl.FS.FileSize(m.FileName); got != grown {
		t.Fatalf("metadata size = %d after growing write, want %d", got, grown)
	}
	out := pr.clipToFile(m.FileName, []ext.Extent{{Off: 0, Len: grown + (1 << 20)}})
	if got := ext.Total(out); got != grown {
		t.Fatalf("clipped total = %d, want %d (the grown size, not the static %d)",
			got, grown, static)
	}
	// The static declaration still applies when it is the larger bound.
	out = pr.clipToFile(m.FileName, []ext.Extent{{Off: 0, Len: static / 2}})
	if got := ext.Total(out); got != static/2 {
		t.Fatalf("in-bounds extents were clipped: total = %d, want %d", got, static/2)
	}
}

// Each home node's batch is canonical, as merging its pieces would make
// it: pieces of the chunk split that touch are joined again. With every
// rank on one compute node, one home serves every chunk, so a list of two
// extents spanning five chunks goes out as one batch of two extents.
func TestIssueByHomeJoinsTouchingPieces(t *testing.T) {
	col := obs.NewCollector()
	cl := tracedCluster(1, col)
	cfg := DefaultConfig()
	r := NewRunner(cl, cfg)
	m := smallMPIIOTest(false)
	pr := r.Add(m, ModeDataDriven, AddOptions{RanksPerNode: m.Procs})
	chunk := cfg.ChunkBytes
	xs := []ext.Extent{{Off: 100, Len: 3 * chunk}, {Off: 4*chunk + 1, Len: chunk / 2}}
	cl.K.Spawn("test", func(p *sim.Proc) {
		pr.issueByHome(p, m.FileName, xs, crmRead)
	})
	cl.K.RunUntil(time.Minute)
	var batches []string
	for _, s := range col.Spans() {
		if argOf(s.Args, "verb") == "crm-read" {
			batches = append(batches, argOf(s.Args, "extents")+"/"+argOf(s.Args, "bytes"))
		}
	}
	if want := fmt.Sprintf("2/%d", ext.Total(xs)); len(batches) != 1 || batches[0] != want {
		t.Fatalf("batches (extents/bytes) = %v, want [%s]", batches, want)
	}
}
