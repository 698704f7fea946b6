package fault_test

import (
	"bytes"
	"testing"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/fault"
	"dualpar/internal/obs"
	"dualpar/internal/workloads"
)

// smallProg is a quick I/O-bound workload.
func smallProg() workloads.Program {
	m := workloads.DefaultMPIIOTest()
	m.Procs = 8
	m.FileBytes = 4 << 20
	return m
}

// run executes the workload on a faulted 3-server cluster and returns the
// exported trace plus the collector and cluster for inspection. retry arms
// both the PFS client watchdog and the CRM batch watchdog.
func run(t *testing.T, sch *fault.Schedule, retry bool) ([]byte, *obs.Collector, *cluster.Cluster) {
	t.Helper()
	col := obs.NewCollector()
	ccfg := cluster.DefaultConfig()
	ccfg.DataServers = 3
	ccfg.DiskSectors = 1 << 25
	ccfg.Seed = 1
	ccfg.Obs = col
	ccfg.Faults = sch
	if retry {
		ccfg.PFS.RequestTimeout = 100 * time.Millisecond
		ccfg.PFS.MaxRetries = 4
		ccfg.PFS.RetryBackoff = 10 * time.Millisecond
	}
	cl := cluster.New(ccfg)
	dcfg := core.DefaultConfig()
	if retry {
		dcfg.CRMTimeout = 2 * time.Second
		dcfg.CRMMaxRetries = 3
		dcfg.CRMBackoff = 20 * time.Millisecond
	}
	r := core.NewRunner(cl, dcfg)
	r.Add(smallProg(), core.ModeDualPar, core.AddOptions{RanksPerNode: 4})
	if !r.Run(time.Hour) {
		t.Fatal("run did not finish (deadlock or starvation under faults)")
	}
	var buf bytes.Buffer
	if err := col.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), col, cl
}

// TestEmptyScheduleByteIdentical: an empty fault schedule must leave the
// run byte-identical to one with the fault layer absent — no kernel
// events, no randomness, no timing perturbation.
func TestEmptyScheduleByteIdentical(t *testing.T) {
	absent, _, _ := run(t, nil, false)
	empty, _, _ := run(t, &fault.Schedule{}, false)
	if !bytes.Equal(absent, empty) {
		t.Fatal("empty fault schedule perturbed the trace relative to no fault layer")
	}
}

// degradedSchedule: data server 1 has a 10x-slower disk for the whole run,
// freezes entirely for part of the first second, and compute node 101
// loses 30% of its messages early on.
func degradedSchedule() *fault.Schedule {
	return &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.DiskSlow, Target: 1, Factor: 10},
		{Kind: fault.ServerStall, Target: 1, Start: 100 * time.Millisecond, End: 1200 * time.Millisecond},
		{Kind: fault.LinkDrop, Target: 101, Prob: 0.3, End: 2 * time.Second},
	}}
}

// TestFaultedRunsAreReproducible: the schedule and the cluster seed fully
// determine the run — two identical configurations export byte-identical
// traces, and the faults demonstrably perturb the timeline.
func TestFaultedRunsAreReproducible(t *testing.T) {
	a, _, _ := run(t, degradedSchedule(), true)
	b, _, _ := run(t, degradedSchedule(), true)
	if !bytes.Equal(a, b) {
		t.Fatal("identical fault schedule and seed produced different traces")
	}
	healthy, _, _ := run(t, nil, false)
	if bytes.Equal(a, healthy) {
		t.Fatal("degraded run exported the same trace as a healthy run")
	}
}

// TestDegradedServerCompletesWithRetries: with one data server 10x
// degraded and stalling, the run completes (no deadlock), the client
// watchdog fires visibly, and the fault windows and drops appear as trace
// instants.
func TestDegradedServerCompletesWithRetries(t *testing.T) {
	_, col, cl := run(t, degradedSchedule(), true)
	names := map[string]int{}
	for _, in := range col.Instants() {
		names[in.Name]++
	}
	if names["fault.begin"] != 3 {
		t.Errorf("fault.begin instants = %d, want 3 (one per window)", names["fault.begin"])
	}
	if names["fault.end"] != 2 {
		t.Errorf("fault.end instants = %d, want 2 (open window has none)", names["fault.end"])
	}
	if names["retry"] == 0 {
		t.Error("no retry instants: the watchdog never fired against a stalled server")
	}
	if cl.FS.Retries() == 0 {
		t.Error("FileSystem.Retries() = 0 under a 1.1s stall with a 100ms timeout")
	}
	if cl.Net.Drops() == 0 {
		t.Error("no messages dropped under a 30% loss window")
	}
	if names["fault.drop"] == 0 {
		t.Error("no fault.drop instants despite dropped messages")
	}
}
