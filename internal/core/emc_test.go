package core

import (
	"testing"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/fault"
	"dualpar/internal/workloads"
)

// TestEMCIdleSlotPreservesHysteresis is the regression test for the
// empty-slot bug: a slot with no instrumented rank activity (dIO+dComp ==
// 0) used to fall into the default branch of the mode-switch logic and
// reset the consecutive-slot counters, so a program whose ranks spend
// whole slots suspended on cycle fills could never accumulate the two
// qualifying (or two low) slots hysteresis requires.
func TestEMCIdleSlotPreservesHysteresis(t *testing.T) {
	cl := smallCluster(1)
	r := NewRunner(cl, DefaultConfig())
	pr := r.Add(smallMPIIOTest(false), ModeDualPar, AddOptions{RanksPerNode: 4})
	e := r.emc

	// First qualifying slot arms the counter but must not switch yet.
	e.applyDecision(pr, true, 0.95, 100, 0, 0)
	if pr.dataDriven {
		t.Fatal("switched data-driven after a single qualifying slot")
	}
	if pr.emc.highSlots != 1 {
		t.Fatalf("highSlots = %d after one qualifying slot, want 1", pr.emc.highSlots)
	}

	// An idle slot carries no evidence and must not reset the counter.
	e.applyDecision(pr, false, 0, 0, 0, 0)
	if pr.emc.highSlots != 1 {
		t.Fatalf("idle slot reset highSlots to %d", pr.emc.highSlots)
	}

	// The second qualifying slot completes the hysteresis.
	e.applyDecision(pr, true, 0.95, 100, 0, 0)
	if !pr.dataDriven {
		t.Fatal("two qualifying slots separated by an idle slot did not switch data-driven on")
	}

	// Same protection for the revert direction.
	e.applyDecision(pr, true, 0.1, 100, 0, 0)
	if pr.emc.lowSlots != 1 {
		t.Fatalf("lowSlots = %d after one low slot, want 1", pr.emc.lowSlots)
	}
	e.applyDecision(pr, false, 0, 0, 0, 0)
	if pr.emc.lowSlots != 1 {
		t.Fatalf("idle slot reset lowSlots to %d", pr.emc.lowSlots)
	}
	e.applyDecision(pr, true, 0.1, 100, 0, 0)
	if pr.dataDriven {
		t.Fatal("two low slots separated by an idle slot did not revert to computation-driven")
	}
}

// A genuinely non-qualifying active slot must still reset the counters
// (the original hysteresis semantics).
func TestEMCActiveNonQualifyingSlotResets(t *testing.T) {
	cl := smallCluster(1)
	r := NewRunner(cl, DefaultConfig())
	pr := r.Add(smallMPIIOTest(false), ModeDualPar, AddOptions{RanksPerNode: 4})
	e := r.emc

	e.applyDecision(pr, true, 0.95, 100, 0, 0)
	// Active but not qualifying: I/O-bound without seek improvement.
	e.applyDecision(pr, true, 0.95, 1, 0, 0)
	if pr.emc.highSlots != 0 {
		t.Fatalf("non-qualifying active slot left highSlots = %d, want 0", pr.emc.highSlots)
	}
	e.applyDecision(pr, true, 0.95, 100, 0, 0)
	if pr.dataDriven {
		t.Fatal("switched with only one qualifying slot since the reset")
	}
}

func TestMedianRobustToStraggler(t *testing.T) {
	xs := []float64{5, 4, 1000, 6}
	if got := median(xs); got != 5.5 {
		t.Fatalf("median(%v) = %g, want 5.5", xs, got)
	}
	if xs[2] != 1000 {
		t.Fatal("median mutated its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd-length median = %g, want 2", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Fatalf("single-element median = %g, want 7", got)
	}
}

// TestEMCSkipsCrashedServerSamples: the slot that spans a crash still has
// partial-slot disk accesses from the dead server; its parked-head sample
// must not enter the seek-distance median. Server 1 crashes mid-slot; the
// first slot's per-server samples must exclude it while the live servers
// (which did I/O the whole slot) remain.
func TestEMCSkipsCrashedServerSamples(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.DataServers = 3
	cfg.DiskSectors = 1 << 25
	cfg.Seed = 1
	cfg.PFS.Replicas = 2
	cfg.PFS.RequestTimeout = 100 * time.Millisecond
	cfg.PFS.MaxRetries = 4
	cfg.PFS.RetryBackoff = 10 * time.Millisecond
	cfg.Faults = &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.ServerCrash, Target: 1, Start: 500 * time.Millisecond},
	}}
	cl := cluster.New(cfg)
	m := workloads.DefaultMPIIOTest()
	m.Procs = 8
	m.FileBytes = 16 << 20
	r := NewRunner(cl, DefaultConfig())
	pr := r.Add(m, ModeDualPar, AddOptions{RanksPerNode: 4})
	if !r.Run(time.Hour) {
		t.Fatal("run did not finish")
	}
	if pr.Elapsed() < time.Second {
		t.Skipf("workload finished in %v, before the first EMC slot", pr.Elapsed())
	}
	if cl.FS.Alive(1) {
		t.Fatal("server 1 should be down in the client view")
	}
	if len(r.EMCDecisions()) == 0 {
		t.Fatal("no EMC decisions recorded")
	}
	// The first slot (t=1s) spans the crash at 500ms: server 1 did I/O for
	// half the slot, so without the liveness filter it would contribute a
	// third sample.
	first := r.EMCDecisions()[0]
	if len(first.PerServerSeek) > 2 {
		t.Fatalf("first slot sampled %d servers, want <= 2 (crashed server filtered)",
			len(first.PerServerSeek))
	}
}
