package fs

import (
	"fmt"
	"sort"
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/sim"
)

// lsmEngine is a log-structured store. Files keep a contiguous base layout
// (an embedded extent engine) modeling their initial on-disk image; every
// write relocates the touched pages to the head of a segmented append-only
// log, so writeback is strictly sequential no matter how scattered the
// logical write pattern is. Reads chase relocated pages into the log —
// after heavy overwriting a logically sequential scan shatters into
// per-page seeks, the opposite seek profile of the extent engines. A
// background compactor rewrites the garbage-heaviest sealed segment
// (reading its live pages, re-appending them at the head) with its disk
// traffic charged through the store's dispatcher and throttled to
// lsmCompactBps, then recycles the segment.
//
// The engine keeps a strict byte ledger — absorbed (log appends from
// writes), compacted (re-appends by the compactor), reclaimed (recycled
// segment bytes), and per-segment used/live — whose conservation is the
// audit oracle: absorbed + compacted == reclaimed + Σ active used, and
// live bookkeeping must equal a recount of the page map.
type lsmEngine struct {
	cfg   Config
	inner *extentEngine // base layout + allocation cursor
	files map[string]*lsmFile

	segBytes   int64   // log segment size, page-aligned
	compactBps float64 // compaction disk-bandwidth throttle, bytes/s

	cur      *lsmSegment
	segs     []*lsmSegment // every live (not yet recycled) segment, log order
	freeSegs []int64       // recycled segment base LBNs, ascending

	absorbed  int64 // bytes appended by writes
	compacted int64 // bytes re-appended by the compactor
	reclaimed int64 // bytes of recycled segments
	live      int64 // bytes of current-version pages in the log

	io   engineIO
	kick sim.Signal
}

type lsmFile struct {
	name  string
	remap map[int64]lsmLoc // page index -> current log location
}

type lsmLoc struct {
	seg *lsmSegment
	lbn int64
}

type lsmSegment struct {
	base    int64 // first LBN
	used    int64 // bytes appended (never shrinks until recycled)
	live    int64 // bytes still current
	sealed  bool
	recycle bool // returned to the free list; loc pointing here is a bug
}

// LSM engine parameters: 4 MiB segments, compaction once a sealed segment
// is half garbage, 32 MiB/s compaction bandwidth.
const (
	lsmSegmentBytes = 4 << 20
	lsmCompactFrac  = 0.5
	lsmCompactBps   = 32 << 20
)

func newLSMEngine(cfg Config) *lsmEngine {
	return &lsmEngine{
		cfg:        cfg,
		inner:      newExtentEngine(cfg),
		files:      make(map[string]*lsmFile),
		segBytes:   (lsmSegmentBytes + pageSize - 1) / pageSize * pageSize,
		compactBps: lsmCompactBps,
	}
}

func (e *lsmEngine) Kind() string { return EngineLSM }

func (e *lsmEngine) start(k *sim.Kernel, name string, io engineIO) {
	e.io = io
	k.Spawn(name+"/compact", e.compactLoop)
}

func (e *lsmEngine) file(name string) *lsmFile {
	f := e.files[name]
	if f == nil {
		f = &lsmFile{name: name, remap: make(map[int64]lsmLoc)}
		e.files[name] = f
	}
	return f
}

func (e *lsmEngine) Open(file string)               { e.inner.Open(file) }
func (e *lsmEngine) Ensure(file string, size int64) { e.inner.Ensure(file, size) }
func (e *lsmEngine) AllocatedSize(file string) int64 {
	return e.inner.AllocatedSize(file)
}

// ReadRuns resolves each page to its current location — the log for
// relocated pages, the base layout otherwise — and coalesces adjacent
// locations into runs. A file with no relocated page reads its base layout
// whole, with one lookup instead of one per page.
func (e *lsmEngine) ReadRuns(out []lbnRun, file string, off, n int64) []lbnRun {
	if f := e.files[file]; f != nil && len(f.remap) > 0 {
		return e.pageRuns(out, f, off, n)
	}
	if m := e.inner.files[file]; m != nil {
		return m.appendRuns(out, off, n)
	}
	return out // never allocated: all hole
}

// pageRuns is ReadRuns page by page.
func (e *lsmEngine) pageRuns(out []lbnRun, f *lsmFile, off, n int64) []lbnRun {
	end := off + n
	for pg := off / pageSize; pg*pageSize < end; pg++ {
		lo, hi := pg*pageSize, (pg+1)*pageSize
		if lo < off {
			lo = off
		}
		if hi > end {
			hi = end
		}
		var lbn int64
		if loc, ok := f.remap[pg]; ok {
			lbn = loc.lbn + (lo-pg*pageSize)/disk.SectorSize
		} else {
			x, ok := e.inner.locate(f.name, lo)
			if !ok {
				continue // unallocated hole: nothing to read
			}
			lbn = x.lbn + (lo-x.fileOff)/disk.SectorSize
		}
		out = appendMergedRun(out, lbnRun{lbn: lbn, bytes: hi - lo})
	}
	return out
}

// WriteRuns relocates the touched pages to the head of the log and returns
// the (sequential) runs the writeback occupies. Log granularity is whole
// pages: sub-page writes are absorbed as a page-sized read-modify-write,
// as a block-based log-structured store would.
func (e *lsmEngine) WriteRuns(out []lbnRun, file string, off, n int64) []lbnRun {
	f := e.file(file)
	for pg := off / pageSize; pg <= (off+n-1)/pageSize; pg++ {
		seg, lbn := e.appendPage()
		if old, ok := f.remap[pg]; ok {
			old.seg.live -= pageSize
			e.live -= pageSize
		}
		f.remap[pg] = lsmLoc{seg: seg, lbn: lbn}
		seg.live += pageSize
		e.live += pageSize
		e.absorbed += pageSize
		out = appendMergedRun(out, lbnRun{lbn: lbn, bytes: pageSize})
	}
	if e.pickVictim() != nil {
		e.kick.Broadcast()
	}
	return out
}

// appendPage reserves one page at the log head, rolling to a fresh segment
// (recycled when available, newly carved otherwise) when the head fills.
func (e *lsmEngine) appendPage() (*lsmSegment, int64) {
	if e.cur == nil || e.cur.used+pageSize > e.segBytes {
		if e.cur != nil {
			e.cur.sealed = true
		}
		var base int64
		if len(e.freeSegs) > 0 {
			base = e.freeSegs[0]
			e.freeSegs = e.freeSegs[1:]
		} else {
			base = e.inner.nexts
			e.inner.nexts += e.segBytes / disk.SectorSize
		}
		e.cur = &lsmSegment{base: base}
		e.segs = append(e.segs, e.cur)
	}
	lbn := e.cur.base + e.cur.used/disk.SectorSize
	e.cur.used += pageSize
	return e.cur, lbn
}

// pickVictim returns the sealed segment worth compacting: the one with the
// most garbage, provided its garbage fraction reaches the threshold.
// Ties break toward the lowest base LBN (deterministic).
func (e *lsmEngine) pickVictim() *lsmSegment {
	var victim *lsmSegment
	var victimGarbage int64
	for _, s := range e.segs {
		if !s.sealed || s.recycle || s == e.cur {
			continue
		}
		garbage := s.used - s.live
		if garbage <= 0 || float64(garbage) < lsmCompactFrac*float64(s.used) {
			continue
		}
		if garbage > victimGarbage || (garbage == victimGarbage && victim != nil && s.base < victim.base) {
			victim, victimGarbage = s, garbage
		}
	}
	return victim
}

// compactLoop runs in its own Proc: wait for garbage, rewrite one segment,
// throttle to the configured compaction bandwidth. A victim appears only
// when WriteRuns overwrites or seals a segment, and it kicks, or after
// compactOne, which the loop re-checks; so an idle compactor waits on the
// kick alone and leaves the event queue empty.
func (e *lsmEngine) compactLoop(p *sim.Proc) {
	for {
		v := e.pickVictim()
		if v == nil {
			e.kick.Wait(p)
			continue
		}
		e.compactOne(p, v)
	}
}

// compactOne reads the victim's live pages, re-appends them at the log
// head, repoints the page map, and recycles the segment. Disk traffic goes
// through the store's dispatcher (visible to the elevator, the disk stats,
// and the audit ledgers) and is throttled to compactBps.
func (e *lsmEngine) compactOne(p *sim.Proc, v *lsmSegment) {
	// Collect the victim's live pages in a deterministic order (map walk
	// order must never leak into the simulation timeline).
	type liveEntry struct {
		f   *lsmFile
		pg  int64
		lbn int64
	}
	var entries []liveEntry
	names := make([]string, 0, len(e.files))
	for name := range e.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := e.files[name]
		pgs := make([]int64, 0, len(f.remap))
		for pg, loc := range f.remap {
			if loc.seg == v {
				pgs = append(pgs, pg)
			}
		}
		sort.Slice(pgs, func(i, j int) bool { return pgs[i] < pgs[j] })
		for _, pg := range pgs {
			entries = append(entries, liveEntry{f: f, pg: pg, lbn: f.remap[pg].lbn})
		}
	}

	start := p.Now()
	var moved int64
	if len(entries) > 0 {
		// Read the live pages in LBN order (one sweep over the segment).
		byLBN := append([]liveEntry(nil), entries...)
		sort.Slice(byLBN, func(i, j int) bool { return byLBN[i].lbn < byLBN[j].lbn })
		var reads []lbnRun
		for _, le := range byLBN {
			reads = appendMergedRun(reads, lbnRun{lbn: le.lbn, bytes: pageSize})
		}
		e.io.engineSubmit(p, reads, false)

		// Re-append them at the head and repoint the map.
		var writes []lbnRun
		for _, le := range byLBN {
			seg, lbn := e.appendPage()
			le.f.remap[le.pg] = lsmLoc{seg: seg, lbn: lbn}
			seg.live += pageSize
			v.live -= pageSize
			e.compacted += pageSize
			writes = appendMergedRun(writes, lbnRun{lbn: lbn, bytes: pageSize})
		}
		e.io.engineSubmit(p, writes, true)
		moved = 2 * pageSize * int64(len(entries))
	}

	// Recycle the segment: its remaining bytes are all garbage now.
	e.reclaimed += v.used
	v.recycle = true
	for i, s := range e.segs {
		if s == v {
			e.segs = append(e.segs[:i], e.segs[i+1:]...)
			break
		}
	}
	i := sort.Search(len(e.freeSegs), func(i int) bool { return e.freeSegs[i] >= v.base })
	e.freeSegs = append(e.freeSegs, 0)
	copy(e.freeSegs[i+1:], e.freeSegs[i:])
	e.freeSegs[i] = v.base

	// Throttle: the rewrite may not consume more disk bandwidth than
	// compactBps; sleep off the difference between the budgeted time
	// for the bytes moved and the time the disk actually took.
	if moved > 0 {
		budget := time.Duration(float64(moved) / e.compactBps * float64(time.Second))
		if spent := p.Now() - start; budget > spent {
			p.Sleep(budget - spent)
		}
	}
}

// CheckInvariants is the byte-conservation oracle: the ledger must balance
// against a full recount of the page map and the segment list.
func (e *lsmEngine) CheckInvariants() error {
	// Recount live bytes per segment from the page map.
	liveBySeg := make(map[*lsmSegment]int64)
	var totalLive int64
	for name, f := range e.files {
		for pg, loc := range f.remap {
			if loc.seg.recycle {
				return fmt.Errorf("lsm engine: file %s page %d points into recycled segment at LBN %d", name, pg, loc.seg.base)
			}
			if loc.lbn < loc.seg.base || loc.lbn >= loc.seg.base+loc.seg.used/disk.SectorSize {
				return fmt.Errorf("lsm engine: file %s page %d at LBN %d outside its segment [%d,%d)",
					name, pg, loc.lbn, loc.seg.base, loc.seg.base+loc.seg.used/disk.SectorSize)
			}
			liveBySeg[loc.seg] += pageSize
			totalLive += pageSize
		}
	}
	if totalLive != e.live {
		return fmt.Errorf("lsm engine: ledger live %d bytes, page map holds %d", e.live, totalLive)
	}
	var totalUsed int64
	for _, s := range e.segs {
		if s.live != liveBySeg[s] {
			return fmt.Errorf("lsm engine: segment at LBN %d claims %d live bytes, page map holds %d", s.base, s.live, liveBySeg[s])
		}
		if s.live < 0 || s.live > s.used || s.used > e.segBytes {
			return fmt.Errorf("lsm engine: segment at LBN %d bounds: live %d used %d cap %d", s.base, s.live, s.used, e.segBytes)
		}
		totalUsed += s.used
	}
	if e.absorbed+e.compacted != e.reclaimed+totalUsed {
		return fmt.Errorf("lsm engine: byte ledger broken: absorbed %d + compacted %d != reclaimed %d + active %d",
			e.absorbed, e.compacted, e.reclaimed, totalUsed)
	}
	return e.inner.CheckInvariants()
}

// Stats exposes the log ledger (for the engines experiment and tests).
func (e *lsmEngine) Stats() (absorbed, compacted, reclaimed, live int64) {
	return e.absorbed, e.compacted, e.reclaimed, e.live
}

// appendMergedRun appends a run, merging it into the previous one when the
// two are contiguous on disk (the prior run must end on a sector boundary
// for the LBN arithmetic to be exact).
func appendMergedRun(out []lbnRun, r lbnRun) []lbnRun {
	if n := len(out); n > 0 {
		last := &out[n-1]
		if last.bytes%disk.SectorSize == 0 && last.lbn+last.bytes/disk.SectorSize == r.lbn {
			last.bytes += r.bytes
			return out
		}
	}
	return append(out, r)
}
