package fs

import (
	"dualpar/internal/sim"
)

// pageChunk is how many pages newPage carves from one allocation when the
// free list is empty.
const pageChunk = 256

// cachePage is a resident page. It sits either on the clean LRU list or on
// the dirty FIFO (in first-dirtied order, which the flusher honors like the
// kernel's per-inode dirty time ordering). The list links are intrusive —
// a page is its own list node — and evicted pages are recycled through a
// free list, so steady-state cache churn allocates nothing.
type cachePage struct {
	f     *cacheFile
	idx   int64
	dirty bool

	prev, next *cachePage
}

// cacheFile is one file's page index: pages[idx] is its resident page idx,
// nil when that page is not resident. The slice only grows, by doubling,
// so a file read front to back indexes its pages in O(log n) allocations.
type cacheFile struct {
	name  string
	pages []*cachePage
}

// lookup returns resident page idx, or nil.
func (f *cacheFile) lookup(idx int64) *cachePage {
	if idx < int64(len(f.pages)) {
		return f.pages[idx]
	}
	return nil
}

// pageList is an intrusive doubly-linked list of cachePages. The zero value
// is an empty list.
type pageList struct {
	head, tail *cachePage
	n          int
}

func (l *pageList) Len() int { return l.n }

func (l *pageList) pushBack(pg *cachePage) {
	pg.prev, pg.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = pg
	} else {
		l.head = pg
	}
	l.tail = pg
	l.n++
}

func (l *pageList) remove(pg *cachePage) {
	if pg.prev != nil {
		pg.prev.next = pg.next
	} else {
		l.head = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	} else {
		l.tail = pg.prev
	}
	pg.prev, pg.next = nil, nil
	l.n--
}

func (l *pageList) moveToBack(pg *cachePage) {
	if l.tail == pg {
		return
	}
	l.remove(pg)
	l.pushBack(pg)
}

// pageCache tracks residency and dirtiness; it stores no data.
type pageCache struct {
	k          *sim.Kernel
	cfg        Config
	files      map[string]*cacheFile
	resident   int64    // non-nil slots across every file's index
	clean      pageList // front = least recently used
	dirty      pageList // front = oldest dirty
	free       *cachePage
	chunk      []cachePage // unused pages of the last chunk
	dirtyBytes int64

	// kick wakes the flusher early; cleaned signals writers/evicters that
	// pages became clean.
	kick    *sim.Signal
	cleaned *sim.Signal
}

func newPageCache(k *sim.Kernel, cfg Config) *pageCache {
	return &pageCache{
		k:       k,
		cfg:     cfg,
		files:   make(map[string]*cacheFile),
		kick:    k.NewSignal(),
		cleaned: k.NewSignal(),
	}
}

// file returns name's page index, creating it on first use. Callers look
// it up once per request and pass it to every per-page call.
func (c *pageCache) file(name string) *cacheFile {
	f := c.files[name]
	if f == nil {
		f = &cacheFile{name: name}
		c.files[name] = f
	}
	return f
}

// set makes pg the resident page idx of f. A slot another inserter filled
// while makeRoom waited is overwritten without being counted twice.
func (c *pageCache) set(f *cacheFile, idx int64, pg *cachePage) {
	if n := int64(len(f.pages)); idx >= n {
		grown := make([]*cachePage, max(2*n, idx+1))
		copy(grown, f.pages)
		f.pages = grown
	}
	if f.pages[idx] == nil {
		c.resident++
	}
	f.pages[idx] = pg
}

// newPage takes a page off the free list (or the current chunk) and
// initializes it.
func (c *pageCache) newPage(f *cacheFile, idx int64) *cachePage {
	pg := c.free
	if pg == nil {
		if len(c.chunk) == 0 {
			c.chunk = make([]cachePage, pageChunk)
		}
		pg = &c.chunk[0]
		c.chunk = c.chunk[1:]
	} else {
		c.free = pg.next
		pg.next = nil
	}
	pg.f, pg.idx, pg.dirty = f, idx, false
	return pg
}

// recycle returns an evicted (unlinked) page to the free list.
func (c *pageCache) recycle(pg *cachePage) {
	pg.f = nil
	pg.next = c.free
	c.free = pg
}

// touch reports whether the page is resident, refreshing its LRU position.
func (c *pageCache) touch(f *cacheFile, idx int64) bool {
	pg := f.lookup(idx)
	if pg == nil {
		return false
	}
	if !pg.dirty {
		c.clean.moveToBack(pg)
	}
	return true
}

// insertClean makes the page resident and clean, evicting LRU clean pages
// as needed. If the cache is entirely dirty, the caller blocks until the
// flusher makes room.
func (c *pageCache) insertClean(p *sim.Proc, f *cacheFile, idx int64) {
	if pg := f.lookup(idx); pg != nil {
		if !pg.dirty {
			c.clean.moveToBack(pg)
		}
		return
	}
	c.makeRoom(p)
	pg := c.newPage(f, idx)
	c.clean.pushBack(pg)
	c.set(f, idx, pg)
}

// insertDirty makes the page resident and dirty.
func (c *pageCache) insertDirty(p *sim.Proc, f *cacheFile, idx int64) {
	if pg := f.lookup(idx); pg != nil {
		if !pg.dirty {
			c.clean.remove(pg)
			pg.dirty = true
			c.dirty.pushBack(pg)
			c.dirtyBytes += pageSize
		}
		return
	}
	c.makeRoom(p)
	pg := c.newPage(f, idx)
	pg.dirty = true
	c.dirty.pushBack(pg)
	c.set(f, idx, pg)
	c.dirtyBytes += pageSize
}

// makeRoom evicts clean LRU pages until one more page fits; if everything
// is dirty it kicks the flusher and waits.
func (c *pageCache) makeRoom(p *sim.Proc) {
	capPages := c.cfg.CacheBytes / pageSize
	for c.resident >= capPages {
		if c.clean.Len() > 0 {
			victim := c.clean.head
			c.clean.remove(victim)
			// A racing insert (see set) may have replaced victim in its
			// slot or left the slot empty; the slot is cleared either way.
			if slots := victim.f.pages; slots[victim.idx] != nil {
				slots[victim.idx] = nil
				c.resident--
			}
			c.recycle(victim)
			continue
		}
		c.kick.Broadcast()
		c.cleaned.Wait(p)
	}
}

// markClean moves a flushed page from the dirty list to the clean LRU.
func (c *pageCache) markClean(pg *cachePage) {
	if !pg.dirty {
		return
	}
	c.dirty.remove(pg)
	pg.dirty = false
	c.clean.pushBack(pg)
	c.dirtyBytes -= pageSize
}
