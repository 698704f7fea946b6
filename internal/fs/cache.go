package fs

import (
	"dualpar/internal/sim"
)

// pageKey identifies one page of one file.
type pageKey struct {
	file string
	idx  int64
}

// cachePage is a resident page. It sits either on the clean LRU list or on
// the dirty FIFO (in first-dirtied order, which the flusher honors like the
// kernel's per-inode dirty time ordering). The list links are intrusive —
// a page is its own list node — and evicted pages are recycled through a
// free list, so steady-state cache churn allocates nothing.
type cachePage struct {
	file  string
	idx   int64
	dirty bool

	prev, next *cachePage
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
	pages      map[pageKey]*cachePage
	clean      pageList // front = least recently used
	dirty      pageList // front = oldest dirty
	free       *cachePage
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
		pages:   make(map[pageKey]*cachePage),
		kick:    k.NewSignal(),
		cleaned: k.NewSignal(),
	}
}

// newPage takes a page off the free list (or allocates one) and initializes
// it.
func (c *pageCache) newPage(file string, idx int64) *cachePage {
	pg := c.free
	if pg == nil {
		pg = &cachePage{}
	} else {
		c.free = pg.next
		pg.next = nil
	}
	pg.file, pg.idx, pg.dirty = file, idx, false
	return pg
}

// recycle returns an evicted (unlinked) page to the free list.
func (c *pageCache) recycle(pg *cachePage) {
	pg.file = ""
	pg.next = c.free
	c.free = pg
}

// touch reports whether the page is resident, refreshing its LRU position.
func (c *pageCache) touch(file string, idx int64) bool {
	pg, ok := c.pages[pageKey{file, idx}]
	if !ok {
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
func (c *pageCache) insertClean(p *sim.Proc, file string, idx int64) {
	key := pageKey{file, idx}
	if pg, ok := c.pages[key]; ok {
		if !pg.dirty {
			c.clean.moveToBack(pg)
		}
		return
	}
	c.makeRoom(p)
	pg := c.newPage(file, idx)
	c.clean.pushBack(pg)
	c.pages[key] = pg
}

// insertDirty makes the page resident and dirty.
func (c *pageCache) insertDirty(p *sim.Proc, file string, idx int64) {
	key := pageKey{file, idx}
	if pg, ok := c.pages[key]; ok {
		if !pg.dirty {
			c.clean.remove(pg)
			pg.dirty = true
			c.dirty.pushBack(pg)
			c.dirtyBytes += int64(c.cfg.PageSize)
		}
		return
	}
	c.makeRoom(p)
	pg := c.newPage(file, idx)
	pg.dirty = true
	c.dirty.pushBack(pg)
	c.pages[key] = pg
	c.dirtyBytes += int64(c.cfg.PageSize)
}

// makeRoom evicts clean LRU pages until one more page fits; if everything
// is dirty it kicks the flusher and waits.
func (c *pageCache) makeRoom(p *sim.Proc) {
	capPages := c.cfg.CacheBytes / int64(c.cfg.PageSize)
	for int64(len(c.pages)) >= capPages {
		if c.clean.Len() > 0 {
			victim := c.clean.head
			c.clean.remove(victim)
			delete(c.pages, pageKey{victim.file, victim.idx})
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
	c.dirtyBytes -= int64(c.cfg.PageSize)
}
