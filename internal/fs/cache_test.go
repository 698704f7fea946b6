package fs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dualpar/internal/sim"
)

// pageKey identifies one page of one file in mapCache.
type pageKey struct {
	file string
	idx  int64
}

// mapCache is the map-keyed page cache the per-file index replaced, kept as
// the model the index must match: residency in one map keyed by (file,
// page), the clean LRU and the dirty FIFO as key slices (front = next to
// go). It never blocks; callers check wouldBlock first.
type mapCache struct {
	capPages   int
	resident   map[pageKey]bool // page → dirty
	clean      []pageKey
	dirty      []pageKey
	dirtyBytes int64
}

func newMapCache(cfg Config) *mapCache {
	return &mapCache{
		capPages: int(cfg.CacheBytes / pageSize),
		resident: make(map[pageKey]bool),
	}
}

func removeKey(keys []pageKey, k pageKey) []pageKey {
	return slices.DeleteFunc(keys, func(x pageKey) bool { return x == k })
}

func (m *mapCache) touch(k pageKey) bool {
	dirty, ok := m.resident[k]
	if ok && !dirty {
		m.clean = append(removeKey(m.clean, k), k)
	}
	return ok
}

// wouldBlock reports whether inserting k has to wait for the flusher: k is
// not resident, the cache is full and every resident page is dirty.
func (m *mapCache) wouldBlock(k pageKey) bool {
	_, ok := m.resident[k]
	return !ok && len(m.resident) >= m.capPages && len(m.clean) == 0
}

func (m *mapCache) makeRoom() {
	for len(m.resident) >= m.capPages {
		victim := m.clean[0]
		m.clean = m.clean[1:]
		delete(m.resident, victim)
	}
}

func (m *mapCache) insertClean(k pageKey) {
	if m.touch(k) {
		return
	}
	m.makeRoom()
	m.resident[k] = false
	m.clean = append(m.clean, k)
}

func (m *mapCache) insertDirty(k pageKey) {
	if dirty, ok := m.resident[k]; ok {
		if !dirty {
			m.clean = removeKey(m.clean, k)
			m.resident[k] = true
			m.dirty = append(m.dirty, k)
			m.dirtyBytes += pageSize
		}
		return
	}
	m.makeRoom()
	m.resident[k] = true
	m.dirty = append(m.dirty, k)
	m.dirtyBytes += pageSize
}

func (m *mapCache) markClean(k pageKey) {
	if !m.resident[k] {
		return
	}
	m.dirty = removeKey(m.dirty, k)
	m.resident[k] = false
	m.clean = append(m.clean, k)
	m.dirtyBytes -= pageSize
}

// indexSlots calls fn for every allocated slot of f's index, in page
// order, resident or not.
func indexSlots(f *cacheFile, fn func(idx int64, r pageRef)) {
	for i, r := range f.first {
		fn(int64(i), r)
	}
	for b, blk := range f.blocks {
		if blk == nil {
			continue
		}
		for i, r := range blk {
			fn(int64(b)<<indexBlockShift+int64(i), r)
		}
	}
}

// listKeys walks one of the cache's intrusive lists front to back, checking
// that each page is the one its file's index holds and carries the list's
// dirtiness.
func listKeys(c *pageCache, l *pageList, dirty bool) ([]pageKey, error) {
	var keys []pageKey
	for r := l.head; r != 0; r = c.pages.at(r).next {
		pg := c.pages.at(r)
		f := c.files[pg.file]
		if pg.dirty != dirty {
			return nil, fmt.Errorf("page %s/%d on the dirty=%v list has dirty=%v", f.name, pg.idx, dirty, pg.dirty)
		}
		if f.lookup(int64(pg.idx)) != r {
			return nil, fmt.Errorf("page %s/%d is listed but not indexed", f.name, pg.idx)
		}
		keys = append(keys, pageKey{f.name, int64(pg.idx)})
	}
	if len(keys) != l.Len() {
		return nil, fmt.Errorf("list walks %d pages, Len %d", len(keys), l.Len())
	}
	return keys, nil
}

// checkAgainstModel compares the cache with the model: resident set, clean
// LRU order, dirty FIFO order and dirty bytes, and the index's non-zero slot
// count against the resident counter.
func checkAgainstModel(c *pageCache, m *mapCache, files []*cacheFile) error {
	slots := int64(0)
	var err error
	for _, f := range files {
		indexSlots(f, func(idx int64, r pageRef) {
			if r == 0 || err != nil {
				return
			}
			slots++
			pg := c.pages.at(r)
			if pg.file != f.id || int64(pg.idx) != idx {
				err = fmt.Errorf("slot %s/%d holds page %s/%d", f.name, idx, c.files[pg.file].name, pg.idx)
				return
			}
			if dirty, ok := m.resident[pageKey{f.name, idx}]; !ok || dirty != pg.dirty {
				err = fmt.Errorf("page %s/%d resident (dirty=%v), model has resident=%v dirty=%v", f.name, idx, pg.dirty, ok, dirty)
			}
		})
	}
	if err != nil {
		return err
	}
	if slots != c.resident {
		return fmt.Errorf("%d non-zero index slots, resident counter %d", slots, c.resident)
	}
	if int(slots) != len(m.resident) {
		return fmt.Errorf("%d pages resident, model %d", slots, len(m.resident))
	}
	clean, err := listKeys(c, &c.clean, false)
	if err != nil {
		return err
	}
	if !slices.Equal(clean, m.clean) {
		return fmt.Errorf("clean LRU %v, model %v", clean, m.clean)
	}
	dirty, err := listKeys(c, &c.dirty, true)
	if err != nil {
		return err
	}
	if !slices.Equal(dirty, m.dirty) {
		return fmt.Errorf("dirty FIFO %v, model %v", dirty, m.dirty)
	}
	if c.dirtyBytes != m.dirtyBytes {
		return fmt.Errorf("dirtyBytes %d, model %d", c.dirtyBytes, m.dirtyBytes)
	}
	return nil
}

// modelPages are the page indices the model test draws from: block 0
// through its 8 → 16 doubling, both sides of the first block boundary, and
// a block far into the file.
var modelPages = []int64{0, 1, 2, 3, 7, 8, 9, 511, 512, 513, 1500, 100000}

func TestPageCacheMatchesMapModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			k := sim.NewKernel(1)
			cfg := DefaultConfig()
			cfg.CacheBytes = 6 * pageSize // eviction on nearly every miss
			cfg.DirtyLimitBytes = cfg.CacheBytes
			c := newPageCache(cfg)
			m := newMapCache(cfg)
			var files []*cacheFile
			for _, name := range []string{"b", "a", "c", "a.1"} {
				files = append(files, c.file(name))
			}
			rng := rand.New(rand.NewSource(seed))
			steps := 0
			var err error
			k.Spawn("model", func(p *sim.Proc) {
				for ; steps < 5000 && err == nil; steps++ {
					f := files[rng.Intn(len(files))]
					key := pageKey{f.name, modelPages[rng.Intn(len(modelPages))]}
					op := rng.Intn(5)
					if (op == 1 || op == 2) && m.wouldBlock(key) {
						op = 3 // a full, all-dirty cache waits for the flusher: flush instead
					}
					switch op {
					case 0:
						if got, want := c.touch(f, key.idx), m.touch(key); got != want {
							err = fmt.Errorf("touch %v = %v, model %v", key, got, want)
							return
						}
					case 1:
						// insertClean's precondition: a touch that missed.
						if !c.touch(f, key.idx) {
							c.insertClean(p, f, key.idx)
						}
						m.insertClean(key)
					case 2:
						c.insertDirty(p, f, key.idx)
						m.insertDirty(key)
					default:
						// Clean a random dirty page, or (a no-op) a clean one.
						var pick []pageKey
						if len(m.dirty) > 0 && rng.Intn(4) > 0 {
							pick = m.dirty
						} else {
							pick = m.clean
						}
						if len(pick) == 0 {
							continue
						}
						key = pick[rng.Intn(len(pick))]
						r := c.file(key.file).lookup(key.idx)
						if r == 0 {
							err = fmt.Errorf("model page %v not in the index", key)
							return
						}
						c.markClean(r)
						m.markClean(key)
					}
					err = checkAgainstModel(c, m, files)
				}
			})
			k.Run()
			if err != nil {
				t.Fatalf("after %d steps: %v", steps, err)
			}
			if steps != 5000 {
				t.Fatalf("model proc stopped after %d steps", steps)
			}
		})
	}
}

// TestPageCacheRacingInsertCountsOnce covers the one path the model test
// cannot reach: two readers miss on the same page of a full, all-dirty
// cache, both wait for the flusher, and both insert. Like the map it
// replaced, the index keeps the last page and counts the slot once.
func TestPageCacheRacingInsertCountsOnce(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.CacheBytes = 2 * pageSize
	cfg.DirtyLimitBytes = cfg.CacheBytes
	c := newPageCache(cfg)
	a, b := c.file("a"), c.file("b")
	k.Spawn("writer", func(p *sim.Proc) {
		c.insertDirty(p, a, 0)
		c.insertDirty(p, a, 1)
	})
	for _, name := range []string{"reader1", "reader2"} {
		k.Spawn(name, func(p *sim.Proc) { c.insertClean(p, b, 0) })
	}
	k.Spawn("flusher", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		c.markClean(a.lookup(0))
		c.markClean(a.lookup(1))
		c.cleaned.Broadcast()
	})
	k.Run()
	slots := int64(0)
	for _, f := range []*cacheFile{a, b} {
		indexSlots(f, func(_ int64, r pageRef) {
			if r != 0 {
				slots++
			}
		})
	}
	if slots != 1 || c.resident != 1 || b.lookup(0) == 0 {
		t.Fatalf("after the race: %d non-zero slots, resident %d, b/0 indexed %v; want 1, 1, true",
			slots, c.resident, b.lookup(0) != 0)
	}
}

// TestPageIndexSizedByTouch pins the index's footprint to the pages a file
// touches: a small file's block 0 grows from 8 slots, a lone far page costs
// one block (plus directory entries, not slots), and a page index past
// int32 panics instead of wrapping.
func TestPageIndexSizedByTouch(t *testing.T) {
	// blockSlots lists the slot count of every allocated block, block 0 first.
	blockSlots := func(f *cacheFile) []int {
		var n []int
		if f.first != nil {
			n = append(n, len(f.first))
		}
		for _, blk := range f.blocks {
			if blk != nil {
				n = append(n, len(blk))
			}
		}
		return n
	}
	insert := func(c *pageCache, f *cacheFile, pages ...int64) {
		k := sim.NewKernel(1)
		k.Spawn("insert", func(p *sim.Proc) {
			for _, idx := range pages {
				c.insertClean(p, f, idx)
			}
		})
		k.Run()
	}

	t.Run("small file", func(t *testing.T) {
		c := newPageCache(DefaultConfig())
		f := c.file("small")
		insert(c, f, 0, 1, 2, 3, 4, 5)
		if got := blockSlots(f); !slices.Equal(got, []int{8}) {
			t.Fatalf("pages 0-5 allocated blocks of %v slots, want [8]", got)
		}
		if c.resident != 6 {
			t.Fatalf("resident %d, want 6", c.resident)
		}
	})

	t.Run("lone far page", func(t *testing.T) {
		c := newPageCache(DefaultConfig())
		f := c.file("far")
		idx := int64(2<<30) / pageSize
		insert(c, f, idx)
		if got := blockSlots(f); !slices.Equal(got, []int{indexBlock}) {
			t.Fatalf("a page at 2 GiB allocated blocks of %v slots, want [%d]", got, indexBlock)
		}
		if f.lookup(idx) == 0 || f.lookup(idx-1) != 0 || f.lookup(0) != 0 {
			t.Fatal("the far page is not the only page indexed")
		}
	})

	t.Run("past int32", func(t *testing.T) {
		f := &cacheFile{name: "huge"}
		defer func() {
			if recover() == nil {
				t.Fatal("page index 2^31 did not panic")
			}
		}()
		f.grow(1 << 31)
	})
}

// BenchmarkPageCache measures the page-cache index on its hot path: a full
// cache at the default size with every access a miss, streaming across 4
// files through touch and insertClean, so each op also evicts the LRU page
// and recycles it. Once warm it must not allocate.
func BenchmarkPageCache(b *testing.B) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	c := newPageCache(cfg)
	span := 2 * cfg.CacheBytes / pageSize // pages per file: 4 files stream through 8x the cache
	var files [4]*cacheFile
	for i := range files {
		files[i] = c.file(fmt.Sprintf("bench%d.dat", i))
	}
	k.Spawn("bench", func(p *sim.Proc) {
		access := func(n int64) {
			f, idx := files[n%4], n/4%span
			if !c.touch(f, idx) {
				c.insertClean(p, f, idx)
			}
		}
		// Warm up: fill the cache, carve every page and size every index.
		for n := int64(0); n < 4*span; n++ {
			access(n)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			access(int64(n))
		}
		b.StopTimer()
	})
	k.Run()
}
