package core

import (
	"testing"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/workloads"
)

// runAudited runs one program under full audit and fails the test on any
// violated oracle.
func runAudited(t *testing.T, prog workloads.Program, mode Mode) *Runner {
	t.Helper()
	cl := smallCluster(1)
	cfg := DefaultConfig()
	cfg.Audit = true
	r := NewRunner(cl, cfg)
	if r.Auditor() == nil {
		t.Fatalf("Audit on but no auditor")
	}
	r.Auditor().SetArtifactDir(t.TempDir())
	r.Add(prog, mode, AddOptions{RanksPerNode: 4})
	if !r.Run(time.Hour) {
		t.Fatalf("%s/%v did not finish under audit", prog.Name(), mode)
	}
	if err := r.AuditErr(); err != nil {
		t.Fatalf("audit violation: %v", err)
	}
	return r
}

func TestAuditedRunsPassEveryOracle(t *testing.T) {
	modes := []Mode{ModeVanilla, ModeCollective, ModeDualPar, ModeDataDriven, ModeStrategy2}
	for _, mode := range modes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			runAudited(t, smallMPIIOTest(mode == ModeDualPar || mode == ModeDataDriven), mode)
		})
	}
}

func TestAuditedWriteRunConservesBytes(t *testing.T) {
	r := runAudited(t, smallMPIIOTest(true), ModeDataDriven)
	// The conservation probes passed (no violation); sanity-check the linked
	// ledgers are non-trivial — the run really moved bytes through them.
	cl := r.Cluster()
	var disk, store int64
	for i, st := range cl.Stores {
		disk += st.Dispatcher().AuditDispatchedBytes()
		store += cl.FS.AuditServedBytes(i)
	}
	if disk == 0 || store == 0 {
		t.Fatalf("audit ledgers empty: disk=%d store=%d", disk, store)
	}
}

// TestSecondAuditedRunnerKeepsTheClusterAuditor: a second audited runner on
// a cluster that already ran one (a restart after a checkpoint, say) keeps
// the cluster's auditor, so the byte ledgers span both runs instead of the
// PFS side being re-armed at zero under the stores' running totals.
func TestSecondAuditedRunnerKeepsTheClusterAuditor(t *testing.T) {
	first := runAudited(t, smallMPIIOTest(true), ModeVanilla)
	cfg := DefaultConfig()
	cfg.Audit = true
	r := NewRunner(first.Cluster(), cfg)
	if r.Auditor() != first.Auditor() {
		t.Fatalf("second runner built its own auditor")
	}
	r.Add(smallMPIIOTest(false), ModeVanilla, AddOptions{RanksPerNode: 4, StartAt: first.Cluster().K.Now()})
	if !r.Run(first.Cluster().K.Now() + time.Hour) {
		t.Fatalf("second run did not finish")
	}
	if err := r.AuditErr(); err != nil {
		t.Fatalf("audit violation across two runs: %v", err)
	}
}

// TestAuditCatchesDroppedWriteback demonstrates the coherence oracle firing:
// dirty cache data marked clean without a recorded durable write must raise
// a keyed pfs.coherence violation carrying a reproducer artifact.
func TestAuditCatchesDroppedWriteback(t *testing.T) {
	cl := smallCluster(1)
	cfg := DefaultConfig()
	cfg.Audit = true
	r := NewRunner(cl, cfg)
	r.Auditor().SetArtifactDir(t.TempDir())

	// Simulate the bug: the file system never saw the write.
	if err := cl.FS.VerifyDurable("lost.dat", []ext.Extent{{Off: 0, Len: 4096}}); err == nil {
		t.Fatalf("VerifyDurable passed for a file that was never written")
	} else {
		r.Auditor().Violatef("pfs.coherence", "%v", err)
	}
	err := r.AuditErr()
	if err == nil {
		t.Fatalf("AuditErr() = nil, want pfs.coherence violation")
	}
	vs := r.Auditor().Violations()
	if vs[0].Key != "pfs.coherence" || vs[0].Artifact == "" {
		t.Fatalf("violation = %+v, want keyed pfs.coherence with artifact", vs[0])
	}
}
