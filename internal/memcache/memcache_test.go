package memcache

import (
	"testing"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/netsim"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// testChunk is the prototype's chunk size, the PVFS2 stripe unit.
const testChunk int64 = 64 << 10

func newCache(k *sim.Kernel, nodes ...int) *Cache {
	net := netsim.New()
	if len(nodes) == 0 {
		nodes = []int{100, 101}
	}
	return New(k, net, testChunk, nodes)
}

func TestGetMissThenHit(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k)
	k.Spawn("p", func(p *sim.Proc) {
		e := ext.Extent{Off: 0, Len: 64 << 10}
		miss := c.Get(p, 100, obs.Ctx{}, "f", nil, e)
		if len(miss) != 1 || miss[0] != e {
			t.Errorf("cold miss = %v, want %v", miss, e)
		}
		c.PutClean(p, 100, obs.Ctx{}, "f", []ext.Extent{e})
		if miss := c.Get(p, 100, obs.Ctx{}, "f", nil, e); len(miss) != 0 {
			t.Errorf("post-put miss = %v, want none", miss)
		}
	})
	k.Run()
	if c.Gets() != 2 || c.Hits() != 1 {
		t.Fatalf("gets=%d hits=%d, want 2/1", c.Gets(), c.Hits())
	}
}

func TestPartialChunkCountsAsMiss(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k)
	k.Spawn("p", func(p *sim.Proc) {
		c.PutClean(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 0, Len: 4 << 10}})
		miss := c.Get(p, 100, obs.Ctx{}, "f", nil, ext.Extent{Off: 0, Len: 8 << 10})
		if len(miss) != 1 || miss[0].Len != 8<<10 {
			t.Errorf("partial hit should report whole piece missing, got %v", miss)
		}
	})
	k.Run()
}

// TestPartialHitChargesNoTransfer pins the billing side of the partial-hit
// path: a chunk that is only partly valid reports the whole piece missing
// and charges neither the home-node op cost nor a wire transfer — the audit
// ledger counts those bytes as missed, not hit.
func TestPartialHitChargesNoTransfer(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k, 100, 101) // chunk 1 homes on node 101
	k.Spawn("p", func(p *sim.Proc) {
		chunk1 := ext.Extent{Off: testChunk, Len: testChunk}
		// Only the first 4K of the remote chunk is valid.
		c.PutClean(p, 101, obs.Ctx{}, "f", []ext.Extent{{Off: testChunk, Len: 4 << 10}})
		t0 := p.Now()
		miss := c.Get(p, 100, obs.Ctx{}, "f", nil, chunk1)
		if p.Now() != t0 {
			t.Errorf("partial hit charged %v of op/transfer time, want none", p.Now()-t0)
		}
		if len(miss) != 1 || miss[0] != chunk1 {
			t.Errorf("miss = %v, want whole piece %v", miss, chunk1)
		}
		// Once fully valid, the same Get pays the remote transfer.
		c.PutClean(p, 101, obs.Ctx{}, "f", []ext.Extent{chunk1})
		t0 = p.Now()
		if miss := c.Get(p, 100, obs.Ctx{}, "f", nil, chunk1); len(miss) != 0 {
			t.Errorf("full chunk still missing: %v", miss)
		}
		if p.Now() == t0 {
			t.Errorf("remote full hit charged nothing")
		}
	})
	k.Run()
}

// TestPartialHitMixedBatch: a Get spanning a fully-valid local chunk and a
// partially-valid remote chunk pays exactly one local op (for the hit) and
// nothing for the partial chunk.
func TestPartialHitMixedBatch(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k, 100, 101)
	k.Spawn("p", func(p *sim.Proc) {
		c.PutClean(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 0, Len: testChunk}}) // chunk 0, local to 100
		c.PutClean(p, 101, obs.Ctx{}, "f", []ext.Extent{{Off: testChunk, Len: 1 << 10}})
		t0 := p.Now()
		miss := c.Get(p, 100, obs.Ctx{}, "f", nil, ext.Extent{Off: 0, Len: 2 * testChunk})
		if got := p.Now() - t0; got != opCPU {
			t.Errorf("mixed batch charged %v, want one local op %v", got, opCPU)
		}
		want := ext.Extent{Off: testChunk, Len: testChunk}
		if len(miss) != 1 || miss[0] != want {
			t.Errorf("miss = %v, want %v", miss, want)
		}
	})
	k.Run()
}

// TestMissRefreshesLastRef pins that a lookup touching a partially-valid
// chunk refreshes its lastRef even though it reports a miss: the chunk is
// still hot, so the idle sweeper must not reclaim it until a full evictAfter
// has passed since the lookup.
func TestMissRefreshesLastRef(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k)
	e := ext.Extent{Off: 0, Len: 4 << 10}
	k.Spawn("p", func(p *sim.Proc) {
		c.PutClean(p, 100, obs.Ctx{}, "f", []ext.Extent{e})
		p.Sleep(evictAfter * 6 / 10)
		// Partial-chunk lookup: a miss, but it must touch lastRef.
		if miss := c.Get(p, 100, obs.Ctx{}, "f", nil, ext.Extent{Off: 0, Len: testChunk}); len(miss) == 0 {
			t.Fatalf("partial chunk reported as hit")
		}
		p.Sleep(evictAfter * 6 / 10)
		// 1.2×evictAfter after the put, but only 0.6× after the touch.
		if c.UsedBytes() != 4<<10 {
			t.Errorf("chunk evicted %v after a touching miss: used=%d", evictAfter*6/10, c.UsedBytes())
		}
		p.Sleep(evictAfter)
		if c.UsedBytes() != 0 {
			t.Errorf("chunk survived a full idle evictAfter: used=%d", c.UsedBytes())
		}
	})
	k.Run()
}

func TestGetSpanningChunks(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k)
	k.Spawn("p", func(p *sim.Proc) {
		// Cache only the first chunk; ask across two chunks.
		c.PutClean(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 0, Len: testChunk}})
		miss := c.Get(p, 100, obs.Ctx{}, "f", nil, ext.Extent{Off: 0, Len: 2 * testChunk})
		if total := ext.Total(miss); total != testChunk {
			t.Errorf("miss total = %d, want one chunk", total)
		}
		if len(miss) != 1 || miss[0].Off != testChunk {
			t.Errorf("miss = %v, want second chunk", miss)
		}
	})
	k.Run()
}

func TestRemoteGetCostsNetwork(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k, 100, 101)
	var local, remote time.Duration
	k.Spawn("p", func(p *sim.Proc) {
		// Chunk 0 homes on node 100, chunk 1 on node 101.
		c.PutClean(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 0, Len: testChunk}})
		c.PutClean(p, 101, obs.Ctx{}, "f", []ext.Extent{{Off: testChunk, Len: testChunk}})
		t0 := p.Now()
		c.Get(p, 100, obs.Ctx{}, "f", nil, ext.Extent{Off: 0, Len: testChunk}) // local
		local = p.Now() - t0
		t0 = p.Now()
		c.Get(p, 100, obs.Ctx{}, "f", nil, ext.Extent{Off: testChunk, Len: testChunk}) // remote
		remote = p.Now() - t0
	})
	k.Run()
	if remote <= local {
		t.Fatalf("remote get %v not slower than local %v", remote, local)
	}
}

func TestRoundRobinHomes(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k, 100, 101, 102)
	if c.Home(0) != 100 || c.Home(1) != 101 || c.Home(2) != 102 || c.Home(3) != 100 {
		t.Fatalf("homes = %d %d %d %d", c.Home(0), c.Home(1), c.Home(2), c.Home(3))
	}
}

func TestDirtyLifecycle(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k)
	k.Spawn("p", func(p *sim.Proc) {
		c.PutDirty(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 0, Len: 4 << 10}, {Off: 4 << 10, Len: 4 << 10}})
		c.PutDirty(p, 100, obs.Ctx{}, "g", []ext.Extent{{Off: 0, Len: 1 << 10}})
	})
	k.Run()
	if got := c.DirtyBytes(); got != 9<<10 {
		t.Fatalf("dirty bytes = %d, want 9K", got)
	}
	files := c.DirtyFiles()
	if len(files) != 2 {
		t.Fatalf("dirty files = %v", files)
	}
	de := c.DirtyExtents("f")
	if len(de) != 1 || de[0] != (ext.Extent{Off: 0, Len: 8 << 10}) {
		t.Fatalf("dirty extents = %v, want merged 8K", de)
	}
	c.MarkClean("f")
	if got := c.DirtyBytes(); got != 1<<10 {
		t.Fatalf("dirty bytes after clean = %d, want 1K", got)
	}
}

func TestIdleEviction(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k)
	k.Spawn("p", func(p *sim.Proc) {
		c.PutClean(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 0, Len: 64 << 10}})
	})
	k.RunUntil(3 * evictAfter)
	if c.UsedBytes() != 0 {
		t.Fatalf("idle chunk not evicted: used = %d", c.UsedBytes())
	}
	if c.Evictions() == 0 {
		t.Fatalf("no evictions counted")
	}
}

func TestDirtyChunksSurviveEviction(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k)
	k.Spawn("p", func(p *sim.Proc) {
		c.PutDirty(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 0, Len: 4 << 10}})
	})
	k.RunUntil(3 * evictAfter)
	if c.DirtyBytes() != 4<<10 {
		t.Fatalf("dirty chunk evicted")
	}
}

func TestCapacityEvictsLRU(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k)
	q := NewQuota("solo", 128<<10) // 2 chunks
	c.SetQuota(q)
	k.Spawn("p", func(p *sim.Proc) {
		c.PutClean(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 0, Len: 64 << 10}})
		p.Sleep(time.Millisecond)
		c.PutClean(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 64 << 10, Len: 64 << 10}})
		p.Sleep(time.Millisecond)
		c.Get(p, 100, obs.Ctx{}, "f", nil, ext.Extent{Off: 0, Len: 64 << 10}) // refresh chunk 0
		p.Sleep(time.Millisecond)
		c.PutClean(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 128 << 10, Len: 64 << 10}})
		// Chunk 1 (LRU) must be gone; chunk 0 must remain.
		if miss := c.Get(p, 100, obs.Ctx{}, "f", nil, ext.Extent{Off: 0, Len: 64 << 10}); len(miss) != 0 {
			t.Errorf("recently used chunk evicted")
		}
		if miss := c.Get(p, 100, obs.Ctx{}, "f", nil, ext.Extent{Off: 64 << 10, Len: 64 << 10}); len(miss) == 0 {
			t.Errorf("LRU chunk not evicted")
		}
	})
	k.Run()
	if c.UsedBytes() > q.Limit() {
		t.Fatalf("used %d over capacity %d", c.UsedBytes(), q.Limit())
	}
}

func TestNewRejectsNonPositiveChunk(t *testing.T) {
	for _, chunk := range []int64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New with chunk %d did not panic", chunk)
				}
			}()
			New(sim.NewKernel(1), netsim.New(), chunk, []int{100})
		}()
	}
}

// TestFirstPutIntoFreshChunkAllocatesNothing: a chunk record carved from a
// warm slab comes with room for its first valid extent, so the first
// PutClean into a fresh chunk allocates nothing.
func TestFirstPutIntoFreshChunkAllocatesNothing(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k, 100) // one home node, the caller's: no wire transfers
	put := func(p *sim.Proc, idx int64) {
		c.PutClean(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: idx*testChunk + 512, Len: 4 << 10}})
	}
	var allocs float64
	k.Spawn("p", func(p *sim.Proc) {
		// 128 resident chunks fill the slabs carved so far (1+1+2+...+64
		// records), so chunk 128 carves a slab of 128; chunk 511 grows the
		// file's index past every chunk put below.
		for idx := int64(0); idx <= 128; idx++ {
			put(p, idx)
		}
		put(p, 511)
		next := int64(129)
		allocs = testing.AllocsPerRun(100, func() {
			put(p, next)
			next++
		})
	})
	k.Run()
	if allocs != 0 {
		t.Fatalf("a first PutClean into a fresh chunk allocates %v objects, want 0", allocs)
	}
	if err := c.CheckUsed(); err != nil {
		t.Fatal(err)
	}
}
