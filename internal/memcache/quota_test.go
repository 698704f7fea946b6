package memcache

import (
	"testing"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

const chunkB = 64 << 10

// run executes fn in a fresh proc and drains the kernel.
func run(t *testing.T, k *sim.Kernel, fn func(p *sim.Proc)) {
	t.Helper()
	k.Spawn("p", fn)
	k.Run()
}

func TestQuotaAccountsAcrossMembers(t *testing.T) {
	k := sim.NewKernel(1)
	q := NewQuota("t0", 0) // unbounded: pure accounting
	a := newCache(k)
	b := newCache(k)
	a.SetQuota(q)
	b.SetQuota(q)
	run(t, k, func(p *sim.Proc) {
		a.PutClean(p, 100, obs.Ctx{}, "fa", []ext.Extent{{Off: 0, Len: chunkB}})
		b.PutClean(p, 100, obs.Ctx{}, "fb", []ext.Extent{{Off: 0, Len: 2 * chunkB}})
		if q.Used() != 3*chunkB {
			t.Errorf("quota used = %d, want %d", q.Used(), 3*chunkB)
		}
		// Only fb ages out: fa is re-referenced before the sweep whose
		// cutoff passes fb's last reference.
		p.Sleep(evictAfter * 2 / 3)
		a.Get(p, 100, obs.Ctx{}, "fa", nil, ext.Extent{Off: 0, Len: chunkB})
		p.Sleep(evictAfter)
		if b.UsedBytes() != 0 || a.UsedBytes() != chunkB {
			t.Errorf("after the idle sweep, members hold %d and %d bytes, want %d and 0",
				a.UsedBytes(), b.UsedBytes(), chunkB)
		}
		if q.Used() != chunkB {
			t.Errorf("after the idle sweep, quota used = %d, want %d", q.Used(), chunkB)
		}
		if err := q.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
}

func TestQuotaEvictsAcrossMembersLRU(t *testing.T) {
	k := sim.NewKernel(1)
	q := NewQuota("t0", 2*chunkB)
	a := newCache(k)
	b := newCache(k)
	a.SetQuota(q)
	b.SetQuota(q)
	run(t, k, func(p *sim.Proc) {
		a.PutClean(p, 100, obs.Ctx{}, "fa", []ext.Extent{{Off: 0, Len: chunkB}})
		p.Sleep(1)
		b.PutClean(p, 100, obs.Ctx{}, "fb", []ext.Extent{{Off: 0, Len: chunkB}})
		p.Sleep(1)
		// Third chunk pushes the partition over; the LRU victim is fa's
		// chunk, which lives in the *other* cache than the one inserting.
		b.PutClean(p, 100, obs.Ctx{}, "fb", []ext.Extent{{Off: chunkB, Len: chunkB}})
		if q.Used() != 2*chunkB {
			t.Errorf("quota used = %d, want %d", q.Used(), 2*chunkB)
		}
		if a.UsedBytes() != 0 {
			t.Errorf("expected fa evicted from member a, used = %d", a.UsedBytes())
		}
		if q.Evictions() != 1 {
			t.Errorf("quota evictions = %d, want 1", q.Evictions())
		}
		if err := q.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
}

// TestQuotaVictimOrderAcrossMembers pins the victim order when chunks of
// two member caches share a lastRef: the lesser (file, chunk) key goes
// first, and for equal keys the earlier-registered member's chunk goes.
// Both members put at t=0 (put stamps lastRef before it pays its cost);
// a later put into the first member pushes the partition over.
func TestQuotaVictimOrderAcrossMembers(t *testing.T) {
	for _, tc := range []struct {
		name         string
		fileA, fileB string
		usedA, usedB int64 // after the eviction
	}{
		{"equal keys: first member's", "f", "f", chunkB, chunkB},
		{"lesser key: second member's", "g", "f", 2 * chunkB, 0},
	} {
		k := sim.NewKernel(1)
		q := NewQuota("t0", 2*chunkB)
		a := newCache(k)
		b := newCache(k)
		a.SetQuota(q)
		b.SetQuota(q)
		one := []ext.Extent{{Off: 0, Len: chunkB}}
		k.Spawn("put a", func(p *sim.Proc) { a.PutClean(p, 100, obs.Ctx{}, tc.fileA, one) })
		k.Spawn("put b", func(p *sim.Proc) { b.PutClean(p, 100, obs.Ctx{}, tc.fileB, one) })
		k.SpawnAt(time.Millisecond, "over", func(p *sim.Proc) {
			a.PutClean(p, 100, obs.Ctx{}, "z", one)
			if q.Evictions() != 1 || a.UsedBytes() != tc.usedA || b.UsedBytes() != tc.usedB {
				t.Errorf("%s: evictions=%d, used a=%d b=%d, want 1, a=%d b=%d",
					tc.name, q.Evictions(), a.UsedBytes(), b.UsedBytes(), tc.usedA, tc.usedB)
			}
		})
		k.Run()
	}
}

// TestQuotaIsolation pins eviction isolation: pressure in one tenant's
// partition never evicts another tenant's data, even on a shared node set.
func TestQuotaIsolation(t *testing.T) {
	k := sim.NewKernel(1)
	q0 := NewQuota("t0", chunkB)
	q1 := NewQuota("t1", 4*chunkB)
	a := newCache(k)
	b := newCache(k)
	a.SetQuota(q0)
	b.SetQuota(q1)
	run(t, k, func(p *sim.Proc) {
		b.PutClean(p, 100, obs.Ctx{}, "victim?", []ext.Extent{{Off: 0, Len: chunkB}})
		p.Sleep(1)
		// Tenant 0 blows through its own partition repeatedly.
		for i := int64(0); i < 4; i++ {
			a.PutClean(p, 100, obs.Ctx{}, "fa", []ext.Extent{{Off: i * chunkB, Len: chunkB}})
		}
		if q0.Used() != chunkB {
			t.Errorf("tenant 0 used = %d, want %d", q0.Used(), chunkB)
		}
		if q1.Used() != chunkB || b.UsedBytes() != chunkB {
			t.Errorf("tenant 1 lost data to tenant 0's pressure: quota=%d cache=%d",
				q1.Used(), b.UsedBytes())
		}
	})
}

// TestQuotaAllDirtyEscape pins the writeback escape hatch: dirty chunks are
// never evicted, so an all-dirty partition legally exceeds its limit and
// Check stays clean; once MarkClean runs, the next put enforces the limit.
func TestQuotaAllDirtyEscape(t *testing.T) {
	k := sim.NewKernel(1)
	q := NewQuota("t0", chunkB)
	a := newCache(k)
	a.SetQuota(q)
	run(t, k, func(p *sim.Proc) {
		a.PutDirty(p, 100, obs.Ctx{}, "fa", []ext.Extent{{Off: 0, Len: 2 * chunkB}})
		if q.Used() != 2*chunkB {
			t.Errorf("dirty data evicted: used = %d, want %d", q.Used(), 2*chunkB)
		}
		if err := q.Check(); err != nil {
			t.Errorf("all-dirty over-limit must be legal: %v", err)
		}
		a.MarkClean("fa")
		p.Sleep(1)
		a.PutClean(p, 100, obs.Ctx{}, "fb", []ext.Extent{{Off: 0, Len: chunkB}})
		if q.Used() != chunkB {
			t.Errorf("post-clean enforcement: used = %d, want %d", q.Used(), chunkB)
		}
		if err := q.Check(); err != nil {
			t.Errorf("Check: %v", err)
		}
	})
}

func TestQuotaCheckCatchesLedgerDrift(t *testing.T) {
	k := sim.NewKernel(1)
	q := NewQuota("t0", 0)
	a := newCache(k)
	a.SetQuota(q)
	run(t, k, func(p *sim.Proc) {
		a.PutClean(p, 100, obs.Ctx{}, "fa", []ext.Extent{{Off: 0, Len: chunkB}})
	})
	q.used += 7 // simulate a bookkeeping bug
	if err := q.Check(); err == nil {
		t.Fatal("Check missed a ledger/member mismatch")
	}
}

func TestSetQuotaMisuse(t *testing.T) {
	k := sim.NewKernel(1)
	a := newCache(k)
	a.SetQuota(nil) // no-op, must not panic
	q := NewQuota("t0", 0)
	a.SetQuota(q)
	defer func() {
		if recover() == nil {
			t.Fatal("double SetQuota did not panic")
		}
	}()
	a.SetQuota(NewQuota("t1", 0))
}
