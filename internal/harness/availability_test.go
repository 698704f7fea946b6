package harness

import (
	"strings"
	"testing"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/ext"
	"dualpar/internal/fault"
)

// oracleRun executes a small replicated checkpoint run with integrity
// tracking armed and returns the cluster for verification.
func oracleRun(t *testing.T) *cluster.Cluster {
	t.Helper()
	prog := availProg(true)
	prog.Procs = 8
	prog.Checkpoints = 4
	ms, cl := executeAvail(1, time.Hour, 2, &fault.Schedule{},
		[]runSpec{{prog: prog, mode: core.ModeVanilla}})
	if !ms[0].finished {
		t.Fatal("oracle-run workload did not finish")
	}
	if err := ms[0].run.Err(); err != nil {
		t.Fatalf("clean run surfaced an I/O error: %v", err)
	}
	return cl
}

func TestVerifyIntegrityPassesCleanRun(t *testing.T) {
	cl := oracleRun(t)
	if err := VerifyIntegrity(cl); err != nil {
		t.Fatalf("oracle failed a clean quorum-replicated run: %v", err)
	}
}

func TestVerifyIntegrityCatchesCorruptedReplica(t *testing.T) {
	cl := oracleRun(t)
	// A clean read first: the corruption below must be the only difference.
	if err := VerifyIntegrity(cl); err != nil {
		t.Fatalf("pre-corruption verify: %v", err)
	}
	// Flip bits on the rank-0 replica of stripe 0 (server 0 local bytes
	// [0, 4k)). Reads prefer rank 0, so the oracle must hit the bad copy.
	cl.FS.Tracker().Corrupt(0, "checkpoint.dat", ext.Extent{Off: 0, Len: 4096})
	err := VerifyIntegrity(cl)
	if err == nil {
		t.Fatal("oracle passed a run with a corrupted replica")
	}
	if !strings.Contains(err.Error(), "read back v-1") {
		t.Fatalf("oracle error %q does not name the corrupted stamp", err)
	}
}

func TestDiffSegs(t *testing.T) {
	exp := []VersionSeg{
		{Ext: ext.Extent{Off: 0, Len: 100}, Ver: 3},
		{Ext: ext.Extent{Off: 200, Len: 50}, Ver: 7},
	}
	if msg := diffSegs(exp, exp); msg != "" {
		t.Fatalf("identical segs diff: %s", msg)
	}
	stale := []VersionSeg{
		{Ext: ext.Extent{Off: 0, Len: 100}, Ver: 3},
		{Ext: ext.Extent{Off: 200, Len: 50}, Ver: 6}, // replica missed v7
	}
	if msg := diffSegs(exp, stale); msg == "" {
		t.Fatal("stale replica stamp not flagged")
	}
	hole := []VersionSeg{
		{Ext: ext.Extent{Off: 0, Len: 40}, Ver: 3},
		{Ext: ext.Extent{Off: 40, Len: 60}}, // unwritten gap (Ver 0)
		{Ext: ext.Extent{Off: 200, Len: 50}, Ver: 7},
	}
	if msg := diffSegs(exp, hole); msg == "" {
		t.Fatal("unwritten hole in read-back not flagged")
	}
}

// TestVerifyIntegrityWriteVoidedAtSend covers a write attempt lost on the
// wire: with three replicas, a replica that has crashed but is not yet
// detected voids the write's message before it reaches the queue, while
// the other two form the quorum. The miss must still reach the rebuild
// ledger, or the recovered replica never re-copies those bytes and a read
// it serves after recovery returns stale data. The workload is
// the replicated-crash benchmark's writer and reader at 24 checkpoints,
// with server 2 down from 1 s to 3 s.
func TestVerifyIntegrityWriteVoidedAtSend(t *testing.T) {
	writer := availProg(false)
	writer.Checkpoints = 24
	reader := availReader(false)
	reader.FileBytes = 3 * 24 * int64(reader.Procs) * int64(reader.SegsPerCall) * reader.SegBytes
	sch := &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.ServerCrash, Target: 2, Start: time.Second, End: 3 * time.Second},
	}}
	for seed := int64(1); seed <= 3; seed++ {
		ms, cl := executeAvail(seed, time.Hour, 3, sch, []runSpec{
			{prog: writer, mode: core.ModeVanilla},
			{prog: reader, mode: core.ModeVanilla, nodeOff: 2},
		})
		for i, m := range ms {
			if !m.finished {
				t.Fatalf("seed %d: program %d did not finish", seed, i)
			}
			if err := m.run.Err(); err != nil {
				t.Fatalf("seed %d: program %d: %v", seed, i, err)
			}
		}
		if err := VerifyIntegrity(cl); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
