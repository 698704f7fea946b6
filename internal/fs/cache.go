package fs

import (
	"fmt"

	"dualpar/internal/sim"
)

// pageChunk is how many page records the slab carves from one allocation
// when the free list is empty.
const pageChunk = 256

// A file's page index is a directory of blocks of indexBlock slots, each
// allocated when a page in its range is first inserted. Block 0 starts at
// firstBlockSlots and grows by doubling, so a file of a few pages pays for
// those pages, not for a whole block.
const (
	indexBlockShift = 9
	indexBlock      = 1 << indexBlockShift
	firstBlockSlots = 8
	maxPageIndex    = 1<<31 - 1 // cachePage.idx is an int32
)

// pageRef names a page record in the cache's slab; 0 is no page.
type pageRef int32

// cachePage is a resident page. It sits either on the clean LRU list or on
// the dirty FIFO (in first-dirtied order, which the flusher honors like the
// kernel's per-inode dirty time ordering). The record holds no pointers:
// it names its file by cacheFile.id and links its list neighbors by ref,
// so the slab's chunks are never scanned by the GC.
type cachePage struct {
	file       int32 // cacheFile.id
	idx        int32
	prev, next pageRef
	dirty      bool
}

// pageSlab holds a cache's page records in fixed chunks, addressed by
// pageRef. Evicted pages are recycled through a free list linked by next,
// so steady-state cache churn allocates nothing.
type pageSlab struct {
	chunks []*[pageChunk]cachePage
	unused pageRef // next never-used ref, from 1: ref 0 is never handed out
	free   pageRef
}

func (s *pageSlab) at(r pageRef) *cachePage {
	return &s.chunks[uint32(r)/pageChunk][uint32(r)%pageChunk]
}

// alloc takes a record off the free list (or the slab's unused tail),
// initializes it and returns its ref and its address.
func (s *pageSlab) alloc(file int32, idx int32) (pageRef, *cachePage) {
	r := s.free
	var pg *cachePage
	if r != 0 {
		pg = s.at(r)
		s.free = pg.next
	} else {
		r = s.unused
		if int(uint32(r)/pageChunk) == len(s.chunks) {
			s.chunks = append(s.chunks, new([pageChunk]cachePage))
		}
		s.unused++
		pg = s.at(r)
	}
	*pg = cachePage{file: file, idx: idx}
	return r, pg
}

// release returns evicted (unlinked) page r, at pg, to the free list.
func (s *pageSlab) release(r pageRef, pg *cachePage) {
	pg.next = s.free
	s.free = r
}

// pageList is an intrusive doubly-linked list of slab pages. The zero value
// is an empty list. Its operations take both a page's ref and its address
// (from pageSlab.at), so each link costs one slab lookup, for the neighbor.
type pageList struct {
	head, tail pageRef
	n          int
}

func (l *pageList) Len() int { return l.n }

func (s *pageSlab) pushBack(l *pageList, r pageRef, pg *cachePage) {
	pg.prev, pg.next = l.tail, 0
	if l.tail != 0 {
		s.at(l.tail).next = r
	} else {
		l.head = r
	}
	l.tail = r
	l.n++
}

// remove unlinks pg from l. Its own links are left stale: every caller
// pushes it onto a list or the free list next, which overwrites them.
func (s *pageSlab) remove(l *pageList, pg *cachePage) {
	if pg.prev != 0 {
		s.at(pg.prev).next = pg.next
	} else {
		l.head = pg.next
	}
	if pg.next != 0 {
		s.at(pg.next).prev = pg.prev
	} else {
		l.tail = pg.prev
	}
	l.n--
}

func (s *pageSlab) moveToBack(l *pageList, r pageRef, pg *cachePage) {
	if l.tail == r {
		return
	}
	s.remove(l, pg)
	s.pushBack(l, r, pg)
}

// cacheFile is one file's page index. Page idx lives in first[idx] when
// idx < len(first) (block 0, at most indexBlock slots) and otherwise in
// blocks[idx>>indexBlockShift], nil until a page in its range is inserted;
// blocks[0] is unused.
type cacheFile struct {
	id     int32
	name   string
	first  []pageRef
	blocks []*[indexBlock]pageRef
}

// slot returns page idx's index slot, or nil when no block covers it.
func (f *cacheFile) slot(idx int64) *pageRef {
	if idx < int64(len(f.first)) {
		return &f.first[idx]
	}
	if b := idx >> indexBlockShift; b < int64(len(f.blocks)) {
		if blk := f.blocks[b]; blk != nil {
			return &blk[idx&(indexBlock-1)]
		}
	}
	return nil
}

// lookup returns resident page idx, or 0.
func (f *cacheFile) lookup(idx int64) pageRef {
	if s := f.slot(idx); s != nil {
		return *s
	}
	return 0
}

// grow allocates the block that holds page idx (or doubles block 0 until
// it does) and returns the page's slot; slot(idx) must be nil. An index
// past int32 panics rather than wraps.
func (f *cacheFile) grow(idx int64) *pageRef {
	if idx < 0 || idx > maxPageIndex {
		panic(fmt.Sprintf("fs: page %d of %q is outside the page index", idx, f.name))
	}
	if idx < indexBlock {
		n := max(2*int64(len(f.first)), firstBlockSlots)
		for n <= idx {
			n *= 2
		}
		grown := make([]pageRef, n)
		copy(grown, f.first)
		f.first = grown
		return &f.first[idx]
	}
	b := idx >> indexBlockShift
	if n := int64(len(f.blocks)); b >= n {
		grown := make([]*[indexBlock]pageRef, max(2*n, b+1))
		copy(grown, f.blocks)
		f.blocks = grown
	}
	blk := new([indexBlock]pageRef)
	f.blocks[b] = blk
	return &blk[idx&(indexBlock-1)]
}

// pageCache tracks residency and dirtiness; it stores no data.
type pageCache struct {
	cfg        Config
	pages      pageSlab
	files      []*cacheFile // by id
	byName     map[string]*cacheFile
	resident   int64    // non-zero slots across every file's index
	clean      pageList // front = least recently used
	dirty      pageList // front = oldest dirty
	dirtyBytes int64

	// kick wakes the flusher early; cleaned signals writers/evicters that
	// pages became clean.
	kick    sim.Signal
	cleaned sim.Signal
}

func newPageCache(cfg Config) *pageCache {
	return &pageCache{
		cfg:    cfg,
		pages:  pageSlab{unused: 1},
		byName: make(map[string]*cacheFile),
	}
}

// file returns name's page index, creating it on first use. Callers look
// it up once per request and pass it to every per-page call.
func (c *pageCache) file(name string) *cacheFile {
	f := c.byName[name]
	if f == nil {
		f = &cacheFile{id: int32(len(c.files)), name: name}
		c.files = append(c.files, f)
		c.byName[name] = f
	}
	return f
}

// set makes r the resident page idx of f. A slot another inserter filled
// while makeRoom waited is overwritten without being counted twice.
func (c *pageCache) set(f *cacheFile, idx int64, r pageRef) {
	s := f.slot(idx)
	if s == nil {
		s = f.grow(idx)
	}
	if *s == 0 {
		c.resident++
	}
	*s = r
}

// touch reports whether the page is resident, refreshing its LRU position.
func (c *pageCache) touch(f *cacheFile, idx int64) bool {
	r := f.lookup(idx)
	if r == 0 {
		return false
	}
	if pg := c.pages.at(r); !pg.dirty {
		c.pages.moveToBack(&c.clean, r, pg)
	}
	return true
}

// insertClean makes a page that is not resident (touch just missed on it)
// resident and clean, evicting LRU clean pages as needed. If the cache is
// entirely dirty, the caller blocks until the flusher makes room.
func (c *pageCache) insertClean(p *sim.Proc, f *cacheFile, idx int64) {
	c.makeRoom(p)
	r, pg := c.pages.alloc(f.id, int32(idx))
	c.pages.pushBack(&c.clean, r, pg)
	c.set(f, idx, r)
}

// insertDirty makes the page resident and dirty.
func (c *pageCache) insertDirty(p *sim.Proc, f *cacheFile, idx int64) {
	if r := f.lookup(idx); r != 0 {
		if pg := c.pages.at(r); !pg.dirty {
			c.pages.remove(&c.clean, pg)
			pg.dirty = true
			c.pages.pushBack(&c.dirty, r, pg)
			c.dirtyBytes += pageSize
		}
		return
	}
	c.makeRoom(p)
	r, pg := c.pages.alloc(f.id, int32(idx))
	pg.dirty = true
	c.pages.pushBack(&c.dirty, r, pg)
	c.set(f, idx, r)
	c.dirtyBytes += pageSize
}

// makeRoom evicts clean LRU pages until one more page fits; if everything
// is dirty it kicks the flusher and waits.
func (c *pageCache) makeRoom(p *sim.Proc) {
	capPages := c.cfg.CacheBytes / pageSize
	for c.resident >= capPages {
		if c.clean.Len() > 0 {
			victim := c.clean.head
			pg := c.pages.at(victim)
			c.pages.remove(&c.clean, pg)
			// A racing insert (see set) may have replaced victim in its
			// slot or left the slot empty; the slot is cleared either way.
			if s := c.files[pg.file].slot(int64(pg.idx)); *s != 0 {
				*s = 0
				c.resident--
			}
			c.pages.release(victim, pg)
			continue
		}
		c.kick.Broadcast()
		c.cleaned.Wait(p)
	}
}

// markClean moves a flushed page from the dirty list to the clean LRU.
func (c *pageCache) markClean(r pageRef) {
	pg := c.pages.at(r)
	if !pg.dirty {
		return
	}
	c.pages.remove(&c.dirty, pg)
	pg.dirty = false
	c.pages.pushBack(&c.clean, r, pg)
	c.dirtyBytes -= pageSize
}
