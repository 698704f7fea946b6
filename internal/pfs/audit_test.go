package pfs

import (
	"strings"
	"testing"

	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// TestVerifyDurableSingleReplica pins the coherence oracle with one
// replica: writes get version stamps whenever the tracker is on, so a
// completed write verifies and untouched ranges fail as never-written.
func TestVerifyDurableSingleReplica(t *testing.T) {
	k, fsys := testFS(3)
	fsys.EnableIntegrity()
	unit := StripeUnit
	w := []ext.Extent{{Off: 0, Len: 4 * unit}}
	k.Spawn("client", func(p *sim.Proc) {
		cl := fsys.Client(100)
		cl.Create(p, "a.dat", 8*unit)
		cl.Write(p, "a.dat", w, 1, obs.Ctx{})
	})
	k.Run()

	if err := fsys.VerifyDurable("a.dat", w); err != nil {
		t.Fatalf("completed write fails coherence: %v", err)
	}
	err := fsys.VerifyDurable("a.dat", []ext.Extent{{Off: 5 * unit, Len: unit}})
	if err == nil || !strings.Contains(err.Error(), "never recorded") {
		t.Fatalf("unwritten range: err = %v, want never-recorded", err)
	}
}

// TestVerifyDurableCatchesDroppedApply models a writeback the servers never
// applied (expected recorded, durable state stale) and a corrupted replica.
func TestVerifyDurableCatchesDroppedApply(t *testing.T) {
	k, fsys := testFS(3)
	tr := fsys.EnableIntegrity()
	unit := StripeUnit
	w := []ext.Extent{{Off: 0, Len: unit}}
	k.Spawn("client", func(p *sim.Proc) {
		cl := fsys.Client(100)
		cl.Create(p, "b.dat", 8*unit)
		cl.Write(p, "b.dat", w, 1, obs.Ctx{})
	})
	k.Run()

	// The write landed; now record a newer expected version with no matching
	// apply — the shape of a dropped writeback.
	tr.recordExpected("b.dat", w, 1<<40)
	err := fsys.VerifyDurable("b.dat", w)
	if err == nil || !strings.Contains(err.Error(), "older than expected") {
		t.Fatalf("stale durable state: err = %v, want older-than-expected", err)
	}

	// Corruption on the only replica voids its stamp entirely.
	k2, fsys2 := testFS(3)
	tr2 := fsys2.EnableIntegrity()
	k2.Spawn("client", func(p *sim.Proc) {
		cl := fsys2.Client(100)
		cl.Create(p, "c.dat", 8*unit)
		cl.Write(p, "c.dat", w, 1, obs.Ctx{})
	})
	k2.Run()
	tr2.Corrupt(0, "c.dat", ext.Extent{Off: 0, Len: unit})
	err = fsys2.VerifyDurable("c.dat", w)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("corrupted replica: err = %v, want durable-bytes-missing", err)
	}
}

// TestVerifyDurableReplicated exercises the oracle across a replicated
// write: every stripe must be durable on at least one replica at the
// expected version.
func TestVerifyDurableReplicated(t *testing.T) {
	k, fsys := testFS(4)
	fsys.cfg.Replicas = 2
	fsys.offsets = replicaOffsets(4, 2)
	fsys.EnableIntegrity()
	unit := StripeUnit
	w := []ext.Extent{{Off: 0, Len: 8 * unit}}
	k.Spawn("client", func(p *sim.Proc) {
		cl := fsys.Client(100)
		cl.Create(p, "r.dat", 16*unit)
		cl.Write(p, "r.dat", w, 1, obs.Ctx{})
	})
	k.Run()
	if err := fsys.VerifyDurable("r.dat", w); err != nil {
		t.Fatalf("replicated write fails coherence: %v", err)
	}
}
