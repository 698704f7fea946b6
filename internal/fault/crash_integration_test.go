package fault_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/fault"
	"dualpar/internal/obs"
	"dualpar/internal/pfs"
	"dualpar/internal/workloads"
)

// crashProg is a write-heavy workload sized to straddle the crash windows
// below: checkpoints land both before the crash and after the recovery.
func crashProg() workloads.Checkpoint {
	c := workloads.DefaultCheckpoint()
	c.Procs = 8
	c.Compute = 100 * time.Millisecond
	c.Checkpoints = 10
	return c
}

// runCrash executes the workload on a 3-server cluster with the given
// replica count and crash schedule, integrity tracking on and both retry
// watchdogs armed.
func runCrash(t *testing.T, sch *fault.Schedule, replicas int, mode core.Mode) (*obs.Collector, *cluster.Cluster, *core.ProgramRun) {
	t.Helper()
	col := obs.NewCollector()
	ccfg := cluster.DefaultConfig()
	ccfg.DataServers = 3
	ccfg.DiskSectors = 1 << 25
	ccfg.Seed = 1
	ccfg.Obs = col
	ccfg.Faults = sch
	ccfg.PFS.Replicas = replicas
	ccfg.PFS.DetectDelay = 50 * time.Millisecond
	ccfg.PFS.RequestTimeout = 100 * time.Millisecond
	ccfg.PFS.MaxRetries = 4
	ccfg.PFS.RetryBackoff = 10 * time.Millisecond
	cl := cluster.New(ccfg)
	cl.FS.EnableIntegrity()
	dcfg := core.DefaultConfig()
	dcfg.CRMTimeout = 2 * time.Second
	dcfg.CRMMaxRetries = 3
	dcfg.CRMBackoff = 20 * time.Millisecond
	r := core.NewRunner(cl, dcfg)
	pr := r.Add(crashProg(), mode, core.AddOptions{RanksPerNode: 4})
	if !r.Run(time.Hour) {
		t.Fatal("run did not finish: crash handling hung the simulation")
	}
	return col, cl, pr
}

// recoveringCrash kills server 1 mid-run and brings it back before the
// workload ends.
func recoveringCrash() *fault.Schedule {
	return &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.ServerCrash, Target: 1, Start: 300 * time.Millisecond, End: 800 * time.Millisecond},
	}}
}

// TestCrashReplicatedCompletesAndRebuilds: with two replicas, a mid-run
// crash-stop must not cost completion or data — the view transition shows
// up in the trace, writes complete at quorum, the recovered server
// rebuilds what it missed, and every acknowledged byte survives.
func TestCrashReplicatedCompletesAndRebuilds(t *testing.T) {
	col, cl, pr := runCrash(t, recoveringCrash(), 2, core.ModeVanilla)
	if err := pr.Err(); err != nil {
		t.Fatalf("replicated run surfaced an I/O error: %v", err)
	}
	names := map[string]int{}
	for _, in := range col.Instants() {
		names[in.Name]++
	}
	if names["pfs.view"] < 2 {
		t.Errorf("pfs.view instants = %d, want >= 2 (down + up)", names["pfs.view"])
	}
	if names["rebuild.begin"] == 0 || names["rebuild.end"] == 0 {
		t.Errorf("rebuild instants begin=%d end=%d: recovered server never rebuilt",
			names["rebuild.begin"], names["rebuild.end"])
	}
	if names["rebuild.lost"] != 0 {
		t.Errorf("rebuild.lost = %d: a two-replica rebuild found no source", names["rebuild.lost"])
	}
	for i := 0; i < 3; i++ {
		if cl.FS.Rebuilding(i) {
			t.Errorf("server %d still rebuilding after the run drained", i)
		}
	}
	// Every byte the tracker saw acknowledged must be present on the
	// recovered server too (the rebuild's whole point). Verified end to end
	// by the harness oracle; here assert the trace told the story.
}

// TestCrashUnreplicatedReportsDataLoss: the same crash without replication
// must be detected and reported as data loss through the typed error — not
// silently absorbed, and not a hang.
func TestCrashUnreplicatedReportsDataLoss(t *testing.T) {
	_, _, pr := runCrash(t, &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.ServerCrash, Target: 1, Start: 300 * time.Millisecond},
	}}, 1, core.ModeVanilla)
	err := pr.Err()
	if err == nil {
		t.Fatal("unreplicated run with a permanent crash reported no error")
	}
	if !errors.Is(err, pfs.ErrRetriesExhausted) {
		t.Fatalf("error %v does not wrap pfs.ErrRetriesExhausted", err)
	}
	var re *pfs.RetryError
	if !errors.As(err, &re) {
		t.Fatalf("error %v carries no *pfs.RetryError", err)
	}
	if re.Server != 1 {
		t.Fatalf("RetryError names server %d, want 1", re.Server)
	}
}

// TestCrashCRMSurfacesError: when the failed I/O happens inside a CRM
// writeback (data-driven mode), the typed error must surface through the
// program run instead of stalling the collective phase.
func TestCrashCRMSurfacesError(t *testing.T) {
	_, _, pr := runCrash(t, &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.ServerCrash, Target: 1, Start: 200 * time.Millisecond},
	}}, 1, core.ModeDataDriven)
	if err := pr.Err(); !errors.Is(err, pfs.ErrRetriesExhausted) {
		t.Fatalf("CRM path error = %v, want wrap of pfs.ErrRetriesExhausted", err)
	}
}

// TestReplicasOneEmptyScheduleByteIdentical: Replicas=1 explicitly set,
// plus an empty fault schedule, must stay byte-identical to the seed
// configuration (no fault layer, no Replicas field) — the replication
// machinery is provably inert when off.
func TestReplicasOneEmptyScheduleByteIdentical(t *testing.T) {
	trace := func(replicas int, sch *fault.Schedule) []byte {
		col := obs.NewCollector()
		ccfg := cluster.DefaultConfig()
		ccfg.DataServers = 3
		ccfg.DiskSectors = 1 << 25
		ccfg.Seed = 1
		ccfg.Obs = col
		ccfg.Faults = sch
		ccfg.PFS.Replicas = replicas
		cl := cluster.New(ccfg)
		r := core.NewRunner(cl, core.DefaultConfig())
		r.Add(crashProg(), core.ModeVanilla, core.AddOptions{RanksPerNode: 4})
		if !r.Run(time.Hour) {
			t.Fatal("run did not finish")
		}
		var buf bytes.Buffer
		if err := col.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seedRun := trace(0, nil)
	replicasOne := trace(1, &fault.Schedule{})
	if !bytes.Equal(seedRun, replicasOne) {
		t.Fatal("Replicas=1 + empty schedule perturbed the trace relative to the seed configuration")
	}
}

var updateGolden = flag.Bool("update", false, "rewrite golden files from this run")

// TestSingleReplicaWatchdogGolden pins the unreplicated, crash-free
// watchdog timeline: a writer and a reader share a 3-server cluster whose
// server 1 stalls from 100 ms to 1.2 s, with the retry watchdogs armed at
// the fault-injection preset. Both reads and writes time out and are
// reissued. The golden records the run's counters, the retry instants per
// file, and a fingerprint of the whole exported trace, so any change to
// when a retry fires, sleeps, or reissues shows up as a diff. Regenerate
// with -update only for an intended timeline change.
func TestSingleReplicaWatchdogGolden(t *testing.T) {
	col := obs.NewCollector()
	ccfg := cluster.DefaultConfig()
	ccfg.DataServers = 3
	ccfg.DiskSectors = 1 << 25
	ccfg.Seed = 1
	ccfg.Obs = col
	ccfg.Faults = &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.ServerStall, Target: 1, Start: 100 * time.Millisecond, End: 1200 * time.Millisecond},
	}}
	dcfg := core.DefaultConfig()
	core.ArmWatchdogs(&ccfg, &dcfg)
	cl := cluster.New(ccfg)
	r := core.NewRunner(cl, dcfg)
	writer := crashProg()
	r.Add(writer, core.ModeVanilla, core.AddOptions{RanksPerNode: 4})
	reader := smallProg()
	r.Add(reader, core.ModeVanilla, core.AddOptions{RanksPerNode: 4, FirstNodeIndex: 2})
	if !r.Run(time.Hour) {
		t.Fatal("run did not finish under the stall window")
	}
	for i, pr := range r.Programs() {
		if err := pr.Err(); err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
	}

	perFile := map[string]int{}
	for _, in := range col.Instants() {
		if in.Name != "retry" {
			continue
		}
		for _, a := range in.Args {
			if a.Key == "file" {
				perFile[a.Val]++
			}
		}
	}
	if perFile[writer.FileName] == 0 || perFile["mpi-io-test.dat"] == 0 {
		t.Fatalf("retries per file = %v: want both the write and the read retried", perFile)
	}
	var buf bytes.Buffer
	if err := col.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())

	var got strings.Builder
	for i, pr := range r.Programs() {
		fmt.Fprintf(&got, "prog%d_elapsed_ns %d\n", i, pr.Elapsed())
	}
	fmt.Fprintf(&got, "retries %d\n", cl.FS.Retries())
	fmt.Fprintf(&got, "failovers %d\n", cl.FS.Failovers())
	files := make([]string, 0, len(perFile))
	for f := range perFile {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		fmt.Fprintf(&got, "retry %s %d\n", f, perFile[f])
	}
	fmt.Fprintf(&got, "trace_bytes %d\n", buf.Len())
	fmt.Fprintf(&got, "trace_fnv64a %016x\n", h.Sum64())

	path := filepath.Join("testdata", "watchdog_r1.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("single-replica watchdog timeline moved:\n--- want ---\n%s--- got ---\n%s", want, got.String())
	}
}
