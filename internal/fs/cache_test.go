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

// listKeys walks one of the cache's intrusive lists front to back, checking
// that each page is the one its file's index holds and carries the list's
// dirtiness.
func listKeys(l *pageList, dirty bool) ([]pageKey, error) {
	var keys []pageKey
	for pg := l.head; pg != nil; pg = pg.next {
		if pg.dirty != dirty {
			return nil, fmt.Errorf("page %s/%d on the dirty=%v list has dirty=%v", pg.f.name, pg.idx, dirty, pg.dirty)
		}
		if pg.f.lookup(pg.idx) != pg {
			return nil, fmt.Errorf("page %s/%d is listed but not indexed", pg.f.name, pg.idx)
		}
		keys = append(keys, pageKey{pg.f.name, pg.idx})
	}
	if len(keys) != l.Len() {
		return nil, fmt.Errorf("list walks %d pages, Len %d", len(keys), l.Len())
	}
	return keys, nil
}

// checkAgainstModel compares the cache with the model: resident set, clean
// LRU order, dirty FIFO order and dirty bytes, and the index's non-nil slot
// count against the resident counter.
func checkAgainstModel(c *pageCache, m *mapCache, files []*cacheFile) error {
	slots := int64(0)
	for _, f := range files {
		for idx, pg := range f.pages {
			if pg == nil {
				continue
			}
			slots++
			if pg.f != f || pg.idx != int64(idx) {
				return fmt.Errorf("slot %s/%d holds page %s/%d", f.name, idx, pg.f.name, pg.idx)
			}
			if dirty, ok := m.resident[pageKey{f.name, int64(idx)}]; !ok || dirty != pg.dirty {
				return fmt.Errorf("page %s/%d resident (dirty=%v), model has resident=%v dirty=%v", f.name, idx, pg.dirty, ok, dirty)
			}
		}
	}
	if slots != c.resident {
		return fmt.Errorf("%d non-nil index slots, resident counter %d", slots, c.resident)
	}
	if int(slots) != len(m.resident) {
		return fmt.Errorf("%d pages resident, model %d", slots, len(m.resident))
	}
	clean, err := listKeys(&c.clean, false)
	if err != nil {
		return err
	}
	if !slices.Equal(clean, m.clean) {
		return fmt.Errorf("clean LRU %v, model %v", clean, m.clean)
	}
	dirty, err := listKeys(&c.dirty, true)
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

func TestPageCacheMatchesMapModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			k := sim.NewKernel(1)
			cfg := DefaultConfig()
			cfg.CacheBytes = 6 * pageSize // eviction on nearly every miss
			cfg.DirtyLimitBytes = cfg.CacheBytes
			c := newPageCache(k, cfg)
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
					key := pageKey{f.name, int64(rng.Intn(12))}
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
						c.insertClean(p, f, key.idx)
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
						pg := c.file(key.file).lookup(key.idx)
						if pg == nil {
							err = fmt.Errorf("model page %v not in the index", key)
							return
						}
						c.markClean(pg)
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
	c := newPageCache(k, cfg)
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
		for _, pg := range f.pages {
			if pg != nil {
				slots++
			}
		}
	}
	if slots != 1 || c.resident != 1 || b.lookup(0) == nil {
		t.Fatalf("after the race: %d non-nil slots, resident %d, b/0 indexed %v; want 1, 1, true",
			slots, c.resident, b.lookup(0) != nil)
	}
}

// BenchmarkPageCache measures the page-cache index on its hot path: a full
// cache at the default size with every access a miss, streaming across 4
// files through touch and insertClean, so each op also evicts the LRU page
// and recycles it. Once warm it must not allocate.
func BenchmarkPageCache(b *testing.B) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	c := newPageCache(k, cfg)
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
