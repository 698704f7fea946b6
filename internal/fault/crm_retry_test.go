package fault_test

import (
	"testing"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/ext"
	"dualpar/internal/fault"
	"dualpar/internal/harness"
	"dualpar/internal/obs"
	"dualpar/internal/workloads"
)

// writeRead is a data-driven workload whose every cycle writes back one
// file and then prefetches another: each rank writes a block of out.dat,
// then reads a block of in.dat far past out.dat's end. The CRM proc issues
// the writeback and the prefetch one after the other, so the prefetch's
// per-home split is taken while the writeback's abandoned attempts may
// still be running.
type writeRead struct{ procs, steps int }

const (
	wrBlock    = 64 << 10
	wrReadBase = 256 << 20 // in.dat's blocks start here; out.dat ends far below
)

func (w writeRead) Name() string { return "write-read" }
func (w writeRead) Ranks() int   { return w.procs }
func (w writeRead) Files() []workloads.FileSpec {
	n := int64(w.procs*w.steps) * wrBlock
	return []workloads.FileSpec{
		{Name: "out.dat", Size: n, Precreate: true},
		{Name: "in.dat", Size: wrReadBase + n, Precreate: true},
	}
}
func (w writeRead) NewRank(r int) workloads.RankGen { return &writeReadGen{w: w, rank: r} }

type writeReadGen struct {
	w    writeRead
	rank int
	op   int
}

func (g *writeReadGen) Next(workloads.Env) workloads.Op {
	if g.op >= 2*g.w.steps {
		return workloads.Op{Kind: workloads.OpDone}
	}
	step, read := g.op/2, g.op%2 == 1
	g.op++
	off := int64(step*g.w.procs+g.rank) * wrBlock
	if read {
		return workloads.Op{Kind: workloads.OpRead, File: "in.dat",
			Extents: []ext.Extent{{Off: wrReadBase + off, Len: wrBlock}}}
	}
	return workloads.Op{Kind: workloads.OpWrite, File: "out.dat",
		Extents: []ext.Extent{{Off: off, Len: wrBlock}}}
}

func (g *writeReadGen) Clone(into workloads.RankGen) workloads.RankGen {
	return workloads.CloneInto(g, into)
}

// TestAbandonedCRMAttemptKeepsItsBatch: with the CRM watchdog armed and
// home node 101's link slowed early in the run, writeback batches are
// relaunched and the abandoned attempts finish after their issueByHome
// has returned and the prefetch that follows has taken a per-home split.
// A late write attempt records its batch's extents with the integrity
// tracker when it completes; had its split been handed to the prefetch,
// it would stamp out.dat at in.dat's offsets, which nothing ever writes,
// and the integrity oracle would fail. The run is also under audit.
func TestAbandonedCRMAttemptKeepsItsBatch(t *testing.T) {
	col := obs.NewCollector()
	ccfg := cluster.DefaultConfig()
	ccfg.DataServers = 3
	ccfg.DiskSectors = 1 << 25
	ccfg.Seed = 1
	ccfg.Obs = col
	ccfg.Faults = &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.LinkSlow, Target: 101, Factor: 20, End: 100 * time.Millisecond},
	}}
	cl := cluster.New(ccfg)
	cl.FS.EnableIntegrity()
	dcfg := core.DefaultConfig()
	dcfg.Audit = true
	dcfg.CRMTimeout = 20 * time.Millisecond
	dcfg.CRMMaxRetries = 3
	dcfg.CRMBackoff = 5 * time.Millisecond
	r := core.NewRunner(cl, dcfg)
	r.Add(writeRead{procs: 8, steps: 16}, core.ModeDataDriven, core.AddOptions{RanksPerNode: 4})
	if !r.Run(time.Hour) {
		t.Fatal("run did not finish")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if err := harness.VerifyIntegrity(cl); err != nil {
		t.Fatalf("integrity oracle: %v", err)
	}

	// The case this test is about must have happened: a writeback attempt
	// still running when a later prefetch batch started.
	var writebacks, prefetches []obs.Span
	for _, sp := range col.Spans() {
		if sp.Stage != obs.StageRequest {
			continue
		}
		verb := ""
		for _, a := range sp.Args {
			if a.Key == "verb" {
				verb = a.Val
			}
		}
		switch verb {
		case "crm-writeback":
			writebacks = append(writebacks, sp)
		case "crm-prefetch":
			prefetches = append(prefetches, sp)
		}
	}
	late := 0
	for _, w := range writebacks {
		for _, p := range prefetches {
			if w.Start < p.Start && p.Start < w.End {
				late++
				break
			}
		}
	}
	if late == 0 {
		t.Fatalf("no writeback attempt outlived its batch (%d writebacks, %d prefetches)",
			len(writebacks), len(prefetches))
	}
}
