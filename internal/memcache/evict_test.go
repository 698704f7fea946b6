package memcache

import (
	"testing"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// Edge cases of the eviction machinery: sweeper re-arm after the cache
// empties, capacity enforcement with no clean victim, and the
// deterministic lastRef tiebreak.

// TestSweeperRearmsAfterEmpty: the idle-eviction chain stops when the
// cache empties (so simulations terminate) and must re-arm when data
// arrives again — a chunk inserted after the quiet period still gets
// evicted on idle.
func TestSweeperRearmsAfterEmpty(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k)
	e := ext.Extent{Off: 0, Len: testChunk}
	k.Spawn("p", func(p *sim.Proc) {
		c.PutClean(p, 100, obs.Ctx{}, "f1", []ext.Extent{e})
		// Wait well past evictAfter: the first generation is swept out and
		// the sweep chain dies with the cache empty.
		p.Sleep(3 * evictAfter)
		if c.UsedBytes() != 0 {
			t.Errorf("first generation not evicted: used=%d", c.UsedBytes())
		}
		if ev := c.Evictions(); ev != 1 {
			t.Errorf("evictions=%d after first idle sweep, want 1", ev)
		}
		// Second generation: the sweeper must have re-armed on this put.
		c.PutClean(p, 100, obs.Ctx{}, "f2", []ext.Extent{e})
		p.Sleep(3 * evictAfter)
		if c.UsedBytes() != 0 {
			t.Errorf("second generation not evicted: sweeper did not re-arm")
		}
	})
	k.Run()
	if c.Evictions() != 2 {
		t.Fatalf("evictions=%d, want 2", c.Evictions())
	}
}

// TestSweeperSkipsAllDirtyCache: a cache holding only dirty chunks has
// nothing to sweep; arming a timer anyway would keep an otherwise-finished
// simulation alive for an extra evictAfter/2.
func TestSweeperSkipsAllDirtyCache(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k)
	var endOfPut time.Duration
	k.Spawn("p", func(p *sim.Proc) {
		c.PutDirty(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 0, Len: testChunk}})
		endOfPut = p.Now()
	})
	k.Run() // would hang in sweeper re-arm cycles if dirty chunks armed it
	if k.Now() != endOfPut {
		t.Errorf("kernel ran to %v after the put finished at %v: sweeper armed with only dirty data", k.Now(), endOfPut)
	}
	if c.Evictions() != 0 {
		t.Errorf("evictions=%d, want 0 (dirty data is not evictable)", c.Evictions())
	}
}

// TestMarkCleanRearmsSweeper: if every chunk is dirty when a put runs, the
// sweeper is (correctly) not armed — but then MarkClean must re-arm it, or
// the cleaned chunks are never evicted and `used` grows without bound.
func TestMarkCleanRearmsSweeper(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k)
	k.Spawn("p", func(p *sim.Proc) {
		c.PutDirty(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 0, Len: testChunk}})
		// Writeback completes: the only chunk goes clean. No put follows.
		c.MarkClean("f")
		p.Sleep(3 * evictAfter)
		if c.UsedBytes() != 0 {
			t.Errorf("cleaned chunk never evicted: used=%d (sweeper not re-armed)", c.UsedBytes())
		}
		if ev := c.Evictions(); ev != 1 {
			t.Errorf("evictions=%d, want 1", ev)
		}
	})
	k.Run()
}

// TestCapacityAllDirtyNoVictim: when every cached byte is dirty, quota
// enforcement must give up (writeback will drain) rather than spin or
// evict unwritten data.
func TestCapacityAllDirtyNoVictim(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k)
	q := NewQuota("solo", testChunk) // room for one chunk
	c.SetQuota(q)
	k.Spawn("p", func(p *sim.Proc) {
		c.PutDirty(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 0, Len: 2 * testChunk}})
	})
	k.Run()
	if c.UsedBytes() != 2*testChunk {
		t.Errorf("used=%d, want %d (dirty data must survive over-capacity)", c.UsedBytes(), 2*testChunk)
	}
	if c.Evictions() != 0 {
		t.Errorf("evictions=%d, want 0", c.Evictions())
	}
	// Once the data is clean, the next insert enforces the cap again.
	c.MarkClean("f")
	k.Spawn("p2", func(p *sim.Proc) {
		c.PutClean(p, 100, obs.Ctx{}, "g", []ext.Extent{{Off: 0, Len: testChunk}})
	})
	k.Run()
	if c.UsedBytes() > q.Limit() {
		t.Errorf("used=%d exceeds capacity %d after dirty data drained", c.UsedBytes(), q.Limit())
	}
}

// TestCapacityTiebreakDeterministic: chunks inserted at the same virtual
// instant share lastRef; the victim must then be chosen by key order
// (file, then chunk index), not map iteration order. Four procs each put
// one chunk at t=0: put stamps lastRef before it pays its operation cost,
// so all four tie.
func TestCapacityTiebreakDeterministic(t *testing.T) {
	one := ext.Extent{Off: 0, Len: testChunk}
	for trial := 0; trial < 5; trial++ {
		k := sim.NewKernel(1)
		c := newCache(k)
		c.SetQuota(NewQuota("solo", 4*testChunk))
		// Four single-chunk files at one instant fill the cache exactly.
		for _, f := range []string{"d", "b", "c", "a"} {
			k.Spawn("put "+f, func(p *sim.Proc) {
				c.PutClean(p, 100, obs.Ctx{}, f, []ext.Extent{one})
			})
		}
		k.SpawnAt(time.Millisecond, "p", func(p *sim.Proc) {
			// A fifth forces one eviction among four equal lastRefs.
			c.PutClean(p, 100, obs.Ctx{}, "e", []ext.Extent{one})
			if ev := c.Evictions(); ev != 1 {
				t.Fatalf("trial %d: evictions=%d at the over-capacity put, want 1", trial, ev)
			}
			if miss := c.Get(p, 100, obs.Ctx{}, "a", nil, one); len(miss) == 0 {
				t.Fatalf("trial %d: %q survived, but it is the canonical victim", trial, "a")
			}
			for _, f := range []string{"b", "c", "d", "e"} {
				if miss := c.Get(p, 100, obs.Ctx{}, f, nil, one); len(miss) != 0 {
					t.Errorf("trial %d: %q evicted, want only %q gone", trial, f, "a")
				}
			}
		})
		k.Run() // idle sweeps after the assertions may evict more; that's fine
	}
}

// TestLessKeyOrdering pins the tiebreak comparator itself.
func TestLessKeyOrdering(t *testing.T) {
	cases := []struct {
		a, b chunkKey
		want bool
	}{
		{chunkKey{"a", 0}, chunkKey{"b", 0}, true},
		{chunkKey{"b", 0}, chunkKey{"a", 9}, false},
		{chunkKey{"a", 1}, chunkKey{"a", 2}, true},
		{chunkKey{"a", 2}, chunkKey{"a", 2}, false},
	}
	for _, tc := range cases {
		if got := lessKey(tc.a, tc.b); got != tc.want {
			t.Errorf("lessKey(%v, %v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestHomeBytesAccumulation covers the sorted-slice accumulator that
// replaced the per-op map on the Get/put hot path.
func TestHomeBytesAccumulation(t *testing.T) {
	var hb homeBytes
	for _, in := range []struct {
		node  int
		bytes int64
	}{{5, 10}, {2, 1}, {5, 7}, {9, 3}, {2, 2}, {0, 4}} {
		hb = hb.add(in.node, in.bytes)
	}
	want := homeBytes{{0, 4}, {2, 3}, {5, 17}, {9, 3}}
	if len(hb) != len(want) {
		t.Fatalf("len=%d, want %d (%v)", len(hb), len(want), hb)
	}
	for i := range want {
		if hb[i] != want[i] {
			t.Errorf("slot %d = %+v, want %+v", i, hb[i], want[i])
		}
	}
}
