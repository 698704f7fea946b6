// Package fs models a data server's local storage stack: a pluggable
// StorageEngine laying file data out on the disk's LBN space (contiguous
// extents by default; an aged, fragmented layout of the same extent map
// and a log-structured engine are selectable), a page cache with
// dirty-page writeback (the paper forces a 1-second flush), and an
// I/O-scheduler dispatcher in front of the device.
//
// Only metadata is stored — file contents are never materialized. Workload
// data dependence is modeled at the workload layer as deterministic
// functions of file offsets, so the storage stack tracks extents, residency,
// and time, not bytes.
package fs

import (
	"fmt"
	"sort"
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/ext"
	"dualpar/internal/iosched"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// The paper's data servers; no run varies these.
const (
	// pageSize is the kernel page size in bytes.
	pageSize int64 = 4096
	// fileGapBytes is the gap left between allocations of different
	// files, separating their disk regions as on a real aged file system.
	fileGapBytes = 16 << 20
	// memBandwidth models page-cache copy cost, bytes/second.
	memBandwidth = 4e9
)

// Config tunes one server's storage stack.
type Config struct {
	// CacheBytes is the page-cache capacity. DirtyLimitBytes throttles
	// writers: a write blocks while dirty bytes exceed it (like
	// dirty_ratio).
	CacheBytes      int64
	DirtyLimitBytes int64

	// WritebackEvery is the periodic flush interval (the paper forces 1 s).
	// WritebackBatchBytes bounds one flush submission.
	WritebackEvery      time.Duration
	WritebackBatchBytes int64

	// SyncWrites makes writes durable before acknowledgment (PVFS2's Trove
	// syncs data per operation); the page cache then only serves reads.
	SyncWrites bool

	// AllocUnitBytes is the extent-allocation granularity: a growing file
	// claims this much contiguous LBN space at a time.
	AllocUnitBytes int64

	// Engine selects the storage engine laying file bytes out on disk:
	// one of Engines() ("" = EngineExtent, the paper's default).
	Engine string
}

// DefaultConfig returns a configuration approximating the paper's data
// servers (with scaled cache).
func DefaultConfig() Config {
	return Config{
		CacheBytes:          256 << 20,
		DirtyLimitBytes:     64 << 20,
		WritebackEvery:      time.Second,
		WritebackBatchBytes: 8 << 20,
		SyncWrites:          true,
		AllocUnitBytes:      8 << 20,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.CacheBytes < pageSize:
		return fmt.Errorf("fs: CacheBytes %d", c.CacheBytes)
	case c.CacheBytes%pageSize != 0:
		// Rejected rather than rounded: capPages = CacheBytes/pageSize would
		// silently truncate, and a config that lies about its cache size is
		// a config bug.
		return fmt.Errorf("fs: CacheBytes %d not a multiple of the %d-byte page", c.CacheBytes, pageSize)
	case c.DirtyLimitBytes <= 0 || c.DirtyLimitBytes > c.CacheBytes:
		return fmt.Errorf("fs: DirtyLimitBytes %d", c.DirtyLimitBytes)
	case c.DirtyLimitBytes%pageSize != 0:
		return fmt.Errorf("fs: DirtyLimitBytes %d not a multiple of the %d-byte page", c.DirtyLimitBytes, pageSize)
	case c.WritebackEvery <= 0:
		return fmt.Errorf("fs: WritebackEvery %v", c.WritebackEvery)
	case c.WritebackBatchBytes < pageSize:
		return fmt.Errorf("fs: WritebackBatchBytes %d", c.WritebackBatchBytes)
	case c.AllocUnitBytes < pageSize:
		return fmt.Errorf("fs: AllocUnitBytes %d", c.AllocUnitBytes)
	case !validEngine(c.Engine):
		return fmt.Errorf("fs: Engine %q (want one of %v)", c.Engine, Engines())
	}
	return nil
}

// Store is one data server's local storage.
type Store struct {
	k      *sim.Kernel
	cfg    Config
	dev    disk.Device
	disp   *iosched.Dispatcher
	eng    StorageEngine
	cache  *pageCache
	wbOrig int // origin id used by the flusher

	statReadBytes  int64
	statWriteBytes int64
	statCacheHits  int64
	statCacheMiss  int64

	cPageHit  *obs.Counter
	cPageMiss *obs.Counter

	// Pools for the per-call batch machinery: block-layer request records
	// and the scratch slices a list-I/O call grows while building its
	// batch. Scratch is checked out per call (concurrent submitters each
	// hold their own across parks) and returned once every request in the
	// batch has completed; requests go back through Reset.
	reqPool     sim.Pool[iosched.Request]
	scratchPool sim.Pool[multiScratch]
}

// multiScratch bundles the slices one ReadMulti/WriteMulti/flushOnce call
// reuses while assembling its request batch. A fresh record's request,
// miss-run and block-run lists start in the one-entry arrays beside them,
// so its first append of each is in place.
type multiScratch struct {
	reqs     []*iosched.Request
	missRuns [][2]int64
	runs     []lbnRun
	pages    []pageRef

	firstReq     [1]*iosched.Request
	firstMissRun [1][2]int64
	firstRun     [1]lbnRun
}

// getScratch checks out a scratch record, pointing a fresh one's lists at
// their first-entry arrays.
func (s *Store) getScratch() *multiScratch {
	sc := s.scratchPool.Get()
	if sc.reqs == nil {
		sc.reqs, sc.missRuns, sc.runs = sc.firstReq[:0], sc.firstMissRun[:0], sc.firstRun[:0]
	}
	return sc
}

func (s *Store) putScratch(sc *multiScratch) {
	sc.reqs = sc.reqs[:0]
	sc.missRuns = sc.missRuns[:0]
	sc.runs = sc.runs[:0]
	sc.pages = sc.pages[:0]
	s.scratchPool.Put(sc)
}

// newReq takes a pooled request record and fills in the caller's fields.
func (s *Store) newReq(lbn, sectors int64, write bool, origin int, rc obs.Ctx) *iosched.Request {
	r := s.reqPool.Get()
	r.LBN, r.Sectors, r.Write, r.Origin, r.Obs = lbn, sectors, write, origin, rc
	return r
}

// submit enqueues a whole batch (so the elevator sees all of it at once),
// blocks p until every request has completed, and recycles the records.
func (s *Store) submit(p *sim.Proc, reqs []*iosched.Request) {
	for _, r := range reqs {
		s.disp.Enqueue(r)
	}
	for _, r := range reqs {
		s.disp.Wait(p, r)
	}
	for _, r := range reqs {
		r.Reset()
		s.reqPool.Put(r)
	}
}

// New creates a store over dev with the given elevator algorithm. name is
// used for the dispatcher Proc. wbOrigin must be an origin id unique to this
// store's flusher.
func New(k *sim.Kernel, name string, dev disk.Device, alg iosched.Algorithm, cfg Config, wbOrigin int) *Store {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Store{
		k:      k,
		cfg:    cfg,
		dev:    dev,
		disp:   iosched.NewDispatcher(k, name+"/dispatch", dev, alg),
		eng:    newEngine(cfg),
		wbOrig: wbOrigin,
	}
	s.cache = newPageCache(cfg)
	if !cfg.SyncWrites {
		k.Spawn(name+"/flusher", s.flusherLoop)
	}
	if be, ok := s.eng.(backgroundEngine); ok {
		be.start(k, name+"/engine", s)
	}
	return s
}

// SetObs attaches the observability collector to the store and its
// dispatcher. Page-cache counters aggregate across stores sharing one
// collector.
func (s *Store) SetObs(c *obs.Collector) {
	s.disp.SetObs(c)
	s.cPageHit = c.Metrics().Counter("pagecache.hit")
	s.cPageMiss = c.Metrics().Counter("pagecache.miss")
}

// Device returns the underlying device (for stats and traces).
func (s *Store) Device() disk.Device { return s.dev }

// Engine returns the store's storage engine (for audits and tests).
func (s *Store) Engine() StorageEngine { return s.eng }

// Dispatcher returns the store's block-layer dispatcher.
func (s *Store) Dispatcher() *iosched.Dispatcher { return s.disp }

// BytesRead and BytesWritten report cumulative request volume served by this
// store (cache hits included).
func (s *Store) BytesRead() int64    { return s.statReadBytes }
func (s *Store) BytesWritten() int64 { return s.statWriteBytes }

// CacheHitPages and CacheMissPages report read-path page hit/miss counts.
func (s *Store) CacheHitPages() int64  { return s.statCacheHits }
func (s *Store) CacheMissPages() int64 { return s.statCacheMiss }

// Create allocates layout for a file of the given size. Creating an
// existing file extends it if size is larger.
func (s *Store) Create(name string, size int64) {
	s.eng.Ensure(name, size)
}

// FileSize reports the allocated size of a file (0 if absent).
func (s *Store) FileSize(name string) int64 {
	return s.eng.AllocatedSize(name)
}

type lbnRun struct {
	lbn   int64
	bytes int64
}

// engineSubmit drives a background engine's disk traffic (LSM compaction)
// through the store's dispatcher at writeback origin, so the elevator,
// disk stats, and audit ledgers all see it. Blocks p until it completes.
func (s *Store) engineSubmit(p *sim.Proc, runs []lbnRun, write bool) {
	sc := s.getScratch()
	reqs := sc.reqs
	for _, lr := range runs {
		reqs = s.appendSplit(reqs, lr, write, s.wbOrig, obs.Ctx{})
	}
	s.submit(p, reqs)
	sc.reqs = reqs
	s.putScratch(sc)
}

// Read serves a read of [off, off+n) of file name for the given origin,
// charging p the full service time (cache copies plus any disk I/O).
func (s *Store) Read(p *sim.Proc, name string, off, n int64, origin int) {
	s.ReadMulti(p, name, []ext.Extent{{Off: off, Len: n}}, origin, obs.Ctx{})
}

// ReadMulti serves a list-I/O read: all disk requests for all extents are
// submitted together (so the elevator sees the whole batch) and p blocks
// until the last completes. rc tags the resulting block-layer requests with
// the originating traced request (zero Ctx = untraced).
func (s *Store) ReadMulti(p *sim.Proc, name string, extents []ext.Extent, origin int, rc obs.Ctx) {
	n := ext.Total(extents)
	if n <= 0 {
		return
	}
	s.statReadBytes += n

	cf := s.cache.file(name)
	sc := s.getScratch()
	missRuns := sc.missRuns // page index ranges [start, end]
	for _, e := range extents {
		if e.Len <= 0 {
			continue
		}
		s.eng.Ensure(name, e.End()) // reading unwritten space still has layout
		first, last := e.Off/pageSize, (e.End()-1)/pageSize
		for pg := first; pg <= last; pg++ {
			if s.cache.touch(cf, pg) {
				s.statCacheHits++
				s.cPageHit.Add(1)
				continue
			}
			s.statCacheMiss++
			s.cPageMiss.Add(1)
			// Mark the page resident immediately so overlapping concurrent
			// readers do not duplicate the fetch. (A real kernel would make
			// them wait on the page lock; we let them proceed, a harmless
			// optimism since the benchmarks do not share read data.)
			s.cache.insertClean(p, cf, pg)
			if len(missRuns) > 0 && missRuns[len(missRuns)-1][1] == pg-1 {
				missRuns[len(missRuns)-1][1] = pg
			} else {
				missRuns = append(missRuns, [2]int64{pg, pg})
			}
		}
	}
	// Charge memory-copy time for the whole transfer.
	p.Sleep(time.Duration(float64(n) / memBandwidth * float64(time.Second)))

	if len(missRuns) == 0 {
		sc.missRuns = missRuns
		s.putScratch(sc)
		return
	}
	reqs := sc.reqs
	alloc := s.eng.AllocatedSize(name)
	for _, run := range missRuns {
		startOff := run[0] * pageSize
		endOff := (run[1] + 1) * pageSize
		if endOff > alloc {
			endOff = alloc
		}
		sc.runs = s.eng.ReadRuns(sc.runs[:0], name, startOff, endOff-startOff)
		for _, lr := range sc.runs {
			reqs = s.appendSplit(reqs, lr, false, origin, rc)
		}
	}
	s.submit(p, reqs)
	sc.reqs, sc.missRuns = reqs, missRuns
	s.putScratch(sc)
}

// Write serves a write of [off, off+n). With SyncWrites the data reaches the
// device before Write returns; otherwise pages are dirtied in the cache and
// the writer is throttled only above the dirty limit.
func (s *Store) Write(p *sim.Proc, name string, off, n int64, origin int) {
	s.WriteMulti(p, name, []ext.Extent{{Off: off, Len: n}}, origin, obs.Ctx{})
}

// WriteMulti serves a list-I/O write; see ReadMulti for batching semantics.
func (s *Store) WriteMulti(p *sim.Proc, name string, extents []ext.Extent, origin int, rc obs.Ctx) {
	n := ext.Total(extents)
	if n <= 0 {
		return
	}
	s.statWriteBytes += n
	p.Sleep(time.Duration(float64(n) / memBandwidth * float64(time.Second)))

	if s.cfg.SyncWrites {
		sc := s.getScratch()
		reqs := sc.reqs
		for _, e := range extents {
			if e.Len <= 0 {
				continue
			}
			s.eng.Ensure(name, e.End())
			sc.runs = s.eng.WriteRuns(sc.runs[:0], name, e.Off, e.Len)
			for _, lr := range sc.runs {
				reqs = s.appendSplit(reqs, lr, true, origin, rc)
			}
		}
		s.submit(p, reqs)
		sc.reqs = reqs
		s.putScratch(sc)
		return
	}

	cf := s.cache.file(name)
	for _, e := range extents {
		if e.Len <= 0 {
			continue
		}
		s.eng.Ensure(name, e.End())
		first, last := e.Off/pageSize, (e.End()-1)/pageSize
		for pg := first; pg <= last; pg++ {
			s.cache.insertDirty(p, cf, pg)
		}
	}
	// Throttle while over the dirty limit.
	for s.cache.dirtyBytes > s.cfg.DirtyLimitBytes {
		s.cache.kick.Broadcast()
		s.cache.cleaned.Wait(p)
	}
}

// Sync flushes all dirty pages and blocks p until done. With SyncWrites it
// is a no-op.
func (s *Store) Sync(p *sim.Proc) {
	for s.cache.dirty.Len() > 0 {
		s.cache.kick.Broadcast()
		s.cache.cleaned.Wait(p)
	}
}

// DirtyBytes reports the current dirty page volume.
func (s *Store) DirtyBytes() int64 { return s.cache.dirtyBytes }

// flusherLoop writes dirty pages back: every WritebackEvery, or immediately
// when kicked (dirty limit exceeded), it drains the dirty list in
// LBN-sorted batches of at most WritebackBatchBytes.
func (s *Store) flusherLoop(p *sim.Proc) {
	for {
		if s.cache.dirty.Len() == 0 {
			s.cache.kick.WaitTimeout(p, s.cfg.WritebackEvery)
			continue
		}
		s.flushOnce(p)
		s.cache.cleaned.Broadcast()
	}
}

// flushOnce writes back the oldest dirty pages, up to one batch.
func (s *Store) flushOnce(p *sim.Proc) {
	c := s.cache
	sc := s.getScratch()
	pages := sc.pages
	var bytes int64
	for r := c.dirty.head; r != 0 && bytes < s.cfg.WritebackBatchBytes; r = c.pages.at(r).next {
		pages = append(pages, r)
		bytes += pageSize
	}
	// Coalesce per-file page runs into write requests, then sort by LBN.
	sort.Slice(pages, func(i, j int) bool {
		a, b := c.pages.at(pages[i]), c.pages.at(pages[j])
		if a.file != b.file {
			return c.files[a.file].name < c.files[b.file].name
		}
		return a.idx < b.idx
	})
	reqs := sc.reqs
	i := 0
	for i < len(pages) {
		first := c.pages.at(pages[i])
		j := i
		for j+1 < len(pages) {
			next, last := c.pages.at(pages[j+1]), c.pages.at(pages[j])
			if next.file != first.file || next.idx != last.idx+1 {
				break
			}
			j++
		}
		// WriteRuns commits relocation at data-reaching-disk time: a
		// log-structured engine assigns the pages' log locations here.
		sc.runs = s.eng.WriteRuns(sc.runs[:0], c.files[first.file].name, int64(first.idx)*pageSize, int64(j-i+1)*pageSize)
		for _, lr := range sc.runs {
			reqs = s.appendSplit(reqs, lr, true, s.wbOrig, obs.Ctx{})
		}
		i = j + 1
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].LBN < reqs[j].LBN })
	s.submit(p, reqs)
	for _, r := range pages {
		c.markClean(r)
	}
	sc.reqs, sc.pages = reqs, pages
	s.putScratch(sc)
}

// appendSplit turns one contiguous LBN run into block-layer requests,
// splitting at the request size cap (max_sectors) like the kernel does.
// Records come from the store's request pool.
func (s *Store) appendSplit(reqs []*iosched.Request, lr lbnRun, write bool, origin int, rc obs.Ctx) []*iosched.Request {
	lbn := lr.lbn
	sectors := (lr.bytes + disk.SectorSize - 1) / disk.SectorSize
	for sectors > 0 {
		n := sectors
		if n > iosched.MaxMergeSectors {
			n = iosched.MaxMergeSectors
		}
		reqs = append(reqs, s.newReq(lbn, n, write, origin, rc))
		lbn += n
		sectors -= n
	}
	return reqs
}
