package harness

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/ext"
	"dualpar/internal/fault"
	"dualpar/internal/metrics"
	"dualpar/internal/pfs"
	"dualpar/internal/sim"
	"dualpar/internal/workloads"
)

// verifyOrigin tags the oracle's re-read requests, away from program and
// flusher origins.
const verifyOrigin = 1 << 21

// VerifyIntegrity is the end-to-end data-integrity oracle: after a run it
// re-reads every logical byte the tracker saw written (through the same
// failover read path the workload used, paying full simulated cost) and
// compares the version stamps the serving replicas hold against the
// expected content. It returns nil only when every byte reads back exactly
// as written; a stale replica, a lost stripe, or a deliberate corruption
// all surface as a non-nil error naming the first bad range. The cluster
// must have had EnableIntegrity armed before the run.
func VerifyIntegrity(cl *cluster.Cluster) error {
	tr := cl.FS.Tracker()
	if tr == nil {
		return fmt.Errorf("harness: VerifyIntegrity without EnableIntegrity")
	}
	client := cl.FS.Client(cluster.ComputeNodeBase)
	var verr error
	done := false
	cl.K.Spawn("harness/verify", func(p *sim.Proc) {
		defer func() { done = true }()
		for _, name := range tr.Files() {
			expected := tr.Expected(name)
			var extents []ext.Extent
			for _, s := range expected {
				if s.Ver > 0 {
					extents = append(extents, s.Ext)
				}
			}
			if len(extents) == 0 {
				continue
			}
			got, err := client.ReadVersions(p, name, ext.Merge(extents), verifyOrigin)
			if err != nil {
				verr = fmt.Errorf("verify %q: %w", name, err)
				return
			}
			if msg := diffSegs(expected, got); msg != "" {
				verr = fmt.Errorf("verify %q: %s", name, msg)
				return
			}
		}
	})
	// The verifier shares the kernel with forever-looping daemons (store
	// flushers), so drive it in bounded steps rather than running the kernel
	// dry.
	if !driveKernel(cl, &done, 30*time.Minute) {
		return fmt.Errorf("harness: integrity verification did not complete (reads wedged)")
	}
	return verr
}

// diffSegs compares the expected version stamps against what a re-read
// returned, byte for byte. Both lists are sorted and the read covers every
// expected byte; "" means they match.
func diffSegs(expected, got []VersionSeg) string {
	i := 0
	for _, g := range got {
		off := g.Ext.Off
		for off < g.Ext.End() {
			for i < len(expected) && expected[i].Ext.End() <= off {
				i++
			}
			if i >= len(expected) || off < expected[i].Ext.Off {
				off = g.Ext.End() // bytes we never stamped; nothing to check
				continue
			}
			e := expected[i]
			end := min(g.Ext.End(), e.Ext.End())
			if g.Ver != e.Ver {
				return fmt.Sprintf("bytes [%d,%d): wrote v%d, read back v%d",
					off, end, e.Ver, g.Ver)
			}
			off = end
		}
	}
	return ""
}

// VersionSeg re-exports the oracle's segment type for test assertions.
type VersionSeg = pfs.VersionSeg

// availProg is the availability write workload: N-1 checkpointing — every
// byte written exactly once at a known offset, so the oracle's expected
// content is rich and any lost write is visible.
func availProg(quick bool) workloads.Checkpoint {
	c := workloads.DefaultCheckpoint()
	c.Procs = 16
	c.Compute = 150 * time.Millisecond
	c.Checkpoints = 16
	if quick {
		c.Checkpoints = 8
	}
	return c
}

// availReader runs alongside the checkpoint: interleaved reads of a
// pre-created file, paced to still be reading when the crash lands, so the
// failover read path (not just quorum writes) is exercised.
func availReader(quick bool) workloads.Demo {
	d := workloads.DefaultDemo()
	d.ComputePerCall = 30 * time.Millisecond
	calls := int64(48)
	if quick {
		calls = 24
	}
	d.FileBytes = calls * int64(d.Procs) * int64(d.SegsPerCall) * d.SegBytes
	return d
}

// Availability sweeps crash-stop server failures against the replica
// count: a single crash that recovers mid-run (exercising failover and the
// online rebuild) and two permanent crashes on non-replica-pair servers.
// The reproduction target: with Replicas >= 2 every cell completes and the
// integrity oracle passes end to end; unreplicated runs detect and report
// the data loss (a typed error, surfaced through the program run) instead
// of hanging.
func Availability(o Opts) *Result {
	res := &Result{
		ID:    "availability",
		Title: "Availability under crash-stop failures: replicas vs crashes, checkpoint workload",
		Table: &metrics.Table{Header: []string{
			"crashes", "replicas", "completed", "elapsed_s", "io_error", "failovers", "oracle"}},
	}
	scenarios := []faultCase{
		{"none", &fault.Schedule{}},
		// Server 2 crashes mid-run and recovers: reads fail over, quorum
		// writes continue, and the rebuild re-copies what it missed.
		{"1 (recovers)", &fault.Schedule{Windows: []fault.Window{
			{Kind: fault.ServerCrash, Target: 2, Start: 400 * time.Millisecond, End: 1100 * time.Millisecond},
		}}},
		// Servers 2 and 4 crash for good. With the default rack-stride
		// placement they hold no stripe's replicas jointly, so two data
		// copies still suffice.
		{"2 (permanent)", &fault.Schedule{Windows: []fault.Window{
			{Kind: fault.ServerCrash, Target: 2, Start: 400 * time.Millisecond},
			{Kind: fault.ServerCrash, Target: 4, Start: 700 * time.Millisecond},
		}}},
	}
	replicaCounts := []int{1, 2, 3}
	if o.Quick {
		scenarios = scenarios[1:] // crash cells only; "none" adds no signal
		replicaCounts = []int{1, 2}
	}
	writer := availProg(o.Quick)
	reader := availReader(o.Quick)
	res.note("checkpoint writer + concurrent reader in every cell; the oracle re-reads all written bytes after the run; crash targets chosen off the replica stride so R=2 covers both scenarios")

	nr := len(replicaCounts)
	outs := sweep(o, grid("availability", each("crashes=%s", scenarios), each("replicas=%d", replicaCounts)), func(i int) notedRow {
		sc, reps := scenarios[i/nr], replicaCounts[i%nr]
		o.logf("availability: crashes=%s replicas=%d", sc.label, reps)
		cl, ddCfg := o.crashCluster(reps, sc.sch, nil)
		ms, _ := o.executeOn(cl, time.Hour, ddCfg, []runSpec{
			{prog: writer, mode: core.ModeVanilla},
			{prog: reader, mode: core.ModeVanilla, nodeOff: 2},
		})
		var out notedRow
		completed := "yes"
		last := ms[0].elapsed
		for _, m := range ms {
			if !m.finished {
				completed = "NO"
				out.notes = append(out.notes,
					fmt.Sprintf("crashes=%s replicas=%d DID NOT FINISH within the time budget", sc.label, reps))
			}
			last = max(last, m.elapsed)
		}
		ioErr := "-"
		var lost []string
		for i, name := range []string{"writer", "reader"} {
			if err := ms[i].run.Err(); err != nil {
				if errorsIsRetries(err) {
					lost = append(lost, name)
				} else {
					lost = append(lost, name+": "+err.Error())
				}
			}
		}
		if len(lost) > 0 {
			ioErr = "data loss: " + strings.Join(lost, "+")
		}
		oracle := "ok"
		if err := VerifyIntegrity(cl); err != nil {
			oracle = "FAIL: " + err.Error()
		}
		out.row = []string{sc.label, fmt.Sprintf("%d", reps), completed,
			secs(last), ioErr, fmt.Sprintf("%d", cl.FS.Failovers()), oracle}
		return out
	})
	res.addRows(outs)
	return res
}

// faultCase is a labeled fault schedule: one scenario of a crash sweep.
type faultCase struct {
	label string
	sch   *fault.Schedule
}

func (c faultCase) String() string { return c.label }

// errorsIsRetries reports whether err wraps the typed retries-exhausted
// error (all replicas of some stripe down).
func errorsIsRetries(err error) bool {
	return errors.Is(err, pfs.ErrRetriesExhausted)
}
