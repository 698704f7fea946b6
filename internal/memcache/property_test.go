package memcache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/netsim"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// TestGetAfterPutAlwaysHits: any Get fully covered by prior PutClean calls
// must be a hit, and uncovered ranges must be reported missing — for
// arbitrary extent sets.
func TestGetAfterPutAlwaysHits(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		net := netsim.New()
		c := New(k, net, DefaultConfig(), []int{100, 101, 102})
		count := 1 + int(n)%12
		var put []ext.Extent
		for i := 0; i < count; i++ {
			put = append(put, ext.Extent{
				Off: rng.Int63n(4 << 20),
				Len: 1 + rng.Int63n(256<<10),
			})
		}
		ok := true
		k.Spawn("p", func(p *sim.Proc) {
			c.PutClean(p, 100, obs.Ctx{}, "f", put)
			// Every put extent must now be fully resident.
			for _, e := range put {
				if miss := c.Get(p, 101, obs.Ctx{}, "f", e); len(miss) != 0 {
					ok = false
				}
			}
			// A range strictly outside all puts must miss entirely.
			var hi int64
			for _, e := range put {
				if e.End() > hi {
					hi = e.End()
				}
			}
			probe := ext.Extent{Off: hi + 128<<10, Len: 4 << 10}
			miss := c.Get(p, 100, obs.Ctx{}, "f", probe)
			if ext.Total(miss) != probe.Len {
				ok = false
			}
		})
		k.RunUntil(time.Minute)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDirtyNeverLost: PutDirty extents always reappear (merged) from
// DirtyExtents until MarkClean, regardless of interleaved clean puts.
func TestDirtyNeverLost(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		net := netsim.New()
		c := New(k, net, DefaultConfig(), []int{100})
		count := 1 + int(n)%10
		var dirty []ext.Extent
		ok := true
		k.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < count; i++ {
				e := ext.Extent{Off: rng.Int63n(2 << 20), Len: 1 + rng.Int63n(64<<10)}
				dirty = append(dirty, e)
				c.PutDirty(p, 100, obs.Ctx{}, "f", []ext.Extent{e})
				// Interleave unrelated clean data.
				c.PutClean(p, 100, obs.Ctx{}, "g", []ext.Extent{{Off: rng.Int63n(1 << 20), Len: 4 << 10}})
			}
			want := ext.Merge(dirty)
			got := c.DirtyExtents("f")
			if ext.Total(got) != ext.Total(want) {
				ok = false
			}
			c.MarkClean("f")
			if len(c.DirtyExtents("f")) != 0 {
				ok = false
			}
			// Data stays valid after MarkClean.
			for _, e := range want {
				if miss := c.Get(p, 100, obs.Ctx{}, "f", e); len(miss) != 0 {
					ok = false
				}
			}
		})
		k.RunUntil(time.Minute)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestListsAreCanonical pins the contract callers rely on to skip
// re-merging: under random put, get and evict sequences, every miss list
// Get returns and every DirtyExtents list equals ext.Merge of itself.
// Extents straddle chunks and repeat; a quota small enough to evict,
// MarkClean, DropFile and idle sweeps all remove chunks between lookups.
func TestListsAreCanonical(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := sim.NewKernel(seed)
		cfg := DefaultConfig()
		c := newCache(k, cfg, 100, 101, 102)
		c.SetQuota(NewQuota("t", 8*cfg.ChunkBytes))
		files := []string{"f", "g"}
		extents := func() []ext.Extent {
			xs := make([]ext.Extent, 1+rng.Intn(4))
			for i := range xs {
				xs[i] = ext.Extent{Off: rng.Int63n(16 * cfg.ChunkBytes), Len: rng.Int63n(3 * cfg.ChunkBytes)}
			}
			return xs
		}
		ok := true
		canonical := func(xs []ext.Extent) {
			if want := ext.Merge(xs); !slices.Equal(xs, want) {
				t.Errorf("list %v is not canonical: Merge gives %v", xs, want)
				ok = false
			}
		}
		k.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < 4+int(n)%40; i++ {
				file := files[rng.Intn(len(files))]
				switch rng.Intn(7) {
				case 0, 1:
					c.PutClean(p, 100, obs.Ctx{}, file, extents())
				case 2, 3:
					c.PutDirty(p, 101, obs.Ctx{}, file, extents())
				case 4:
					c.MarkClean(file)
				case 5:
					if rng.Intn(3) == 0 {
						c.DropFile(file)
					} else {
						p.Sleep(evictAfter)
					}
				}
				canonical(c.Get(p, 102, obs.Ctx{}, file, extents()...))
				canonical(c.DirtyExtents(file))
			}
		})
		k.RunUntil(time.Hour)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
