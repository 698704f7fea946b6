package core

import (
	"fmt"
	"slices"

	"dualpar/internal/cluster"
	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// crmServe is one CRM service phase (paper §IV-D): write back all dirty
// data first, then serve the batched prefetch. In both directions requests
// from all processes are sorted by file offset, adjacent requests merged,
// holes up to the threshold absorbed (write holes are read back first —
// read-modify-write), and the result issued as list I/O in ascending
// offset order from each chunk's home node.
func (pr *ProgramRun) crmServe(p *sim.Proc, wish *fileExtents) {
	cfg := pr.r.cfg

	// Phase 1: collective writeback of everything dirty.
	for _, file := range pr.cache.DirtyFiles() {
		dirty := pr.cache.DirtyExtents(file)
		merged, holes := ext.Sieve(dirty, cfg.HoleBytes)
		if len(holes) > 0 {
			// Fill the holes with reads so larger writes can be formed.
			pr.issueByHome(p, file, holes, crmRead)
		}
		pr.issueByHome(p, file, merged, crmWrite)
		pr.cache.MarkClean(file)
		if a := pr.r.audit; a != nil {
			// Coherence oracle: everything this cycle marked clean must be
			// durable at a version at least as new as the writers recorded.
			if err := pr.r.cl.FS.VerifyDurable(file, merged); err != nil {
				a.Violatef("pfs.coherence", "%v", err)
			}
		}
	}
	if a := pr.r.audit; a != nil {
		a.RunProbes()
	}

	// Close out the previous cycle's mis-prefetch sample: the fraction of
	// prefetched data not consumed when this service phase began (§IV-C).
	// The sample closes on every served cycle — including writeback-only
	// cycles (write-quota suspensions), which would otherwise let
	// consumedCycle accumulate across cycles and skew the next ratio.
	if pr.prefetchedCycle > 0 {
		ratio := 1 - float64(pr.consumedCycle)/float64(pr.prefetchedCycle)
		if ratio < 0 {
			ratio = 0
		}
		pr.misSamples = append(pr.misSamples, ratio)
		if o := pr.obs(); o.Enabled() {
			o.Instant("cache.misprefetch", pr.ctrlTrack(), p.Now(), obs.F64("ratio", ratio))
		}
		pr.checkMisPrefetchFastPath()
	}
	pr.consumedCycle = 0
	pr.prefetchedCycle = 0

	// Phase 2: batched prefetch of the ghosts' recorded reads.
	pr.crmPrefetch(p, wish)
}

// crmPrefetch serves a batched prefetch: merge in offset order, absorb
// holes, align to the cache chunk, and issue per home node. The merge and
// its buffer are the Runner's, which other CRM procs (a pipelined
// prefetch among them) use too, so both are dead before issueByHome
// yields: AlignTo copies the merged list.
func (pr *ProgramRun) crmPrefetch(p *sim.Proc, wish *fileExtents) {
	cfg, r := pr.r.cfg, pr.r
	for _, file := range wish.files {
		r.merge.Reset(wish.byFile[file])
		r.merged = r.merge.Coalesce(r.merged, cfg.HoleBytes)
		aligned := ext.AlignTo(r.merged, cfg.ChunkBytes)
		aligned = pr.clipToFile(file, aligned)
		if len(aligned) == 0 {
			continue
		}
		pr.prefetchedCycle += ext.Total(aligned)
		pr.issueByHome(p, file, aligned, crmPrefetch)
	}
}

type crmOp int

const (
	crmRead     crmOp = iota // read, discard (hole fill for writeback)
	crmWrite                 // write back dirty data
	crmPrefetch              // read into the global cache
)

// issueByHome partitions extents, which must be in ext.Merge's canonical
// form, by their chunks' home nodes and issues one sorted list-I/O batch per
// home node, in parallel and in ascending node order, waiting for all. Each
// home's pieces arrive in offset order, so joining touching ones on append
// keeps its batch canonical. The partition is a split from the Runner's
// pool.
func (pr *ProgramRun) issueByHome(p *sim.Proc, file string, extents []ext.Extent, op crmOp) {
	r := pr.r
	s := r.splits.Get()
	s.pr, s.file, s.op, s.refs = pr, file, op, 1
	chunk := r.cfg.ChunkBytes
	ext.VisitSplit(extents, chunk, func(piece ext.Extent) {
		sl := s.slot(pr.cache.Home(piece.Off / chunk))
		if n := len(sl.batch); n > 0 && sl.batch[n-1].End() == piece.Off {
			sl.batch[n-1].Len += piece.Len
		} else {
			sl.batch = append(sl.batch, piece)
		}
	})
	k := r.cl.K
	for _, sl := range s.slots {
		if len(sl.batch) > 0 {
			s.wg.Add(1)
			k.Spawn(pr.crmHomeName(sl.home), sl.run)
		}
	}
	s.wg.Wait(p)
	s.release()
}

// homeSplit is one issueByHome call's extents partitioned by home node.
// Slot i holds compute node cluster.ComputeNodeBase+i's batch, so the
// slots in order are the homes in ascending node id. The issuer holds one
// reference and every launched CRM attempt another: an attempt the
// watchdog abandoned keeps reading its batch after issueByHome returned.
// The last reference returns the split to the Runner's pool.
type homeSplit struct {
	pr    *ProgramRun
	file  string
	op    crmOp
	slots []*homeSlot
	wg    sim.WaitGroup // the slots' supervisors
	refs  int
}

// homeSlot is one home node's batch within a split.
type homeSlot struct {
	s     *homeSplit
	home  int
	batch []ext.Extent
	run   func(*sim.Proc) // supervise, bound once
}

// slot returns home's slot, growing the split to reach it.
func (s *homeSplit) slot(home int) *homeSlot {
	for i := home - cluster.ComputeNodeBase; len(s.slots) <= i; {
		sl := &homeSlot{s: s, home: cluster.ComputeNodeBase + len(s.slots)}
		sl.run = sl.supervise
		s.slots = append(s.slots, sl)
	}
	return s.slots[home-cluster.ComputeNodeBase]
}

// release drops one reference; the last empties the batches, keeping
// their capacity, and returns the split to the pool.
func (s *homeSplit) release() {
	if s.refs--; s.refs > 0 {
		return
	}
	r := s.pr.r
	for _, sl := range s.slots {
		sl.batch = sl.batch[:0]
	}
	s.pr, s.file = nil, ""
	r.splits.Put(s)
}

// supervise is the body of a home's CRM proc.
func (sl *homeSlot) supervise(hp *sim.Proc) {
	sl.s.pr.superviseBatch(hp, sl)
	sl.s.wg.Done()
}

// crmHomeName is the name of the CRM proc serving home node home,
// formatted once per program.
func (pr *ProgramRun) crmHomeName(home int) string {
	if pr.crmHomeNames == nil {
		pr.crmHomeNames = make([]string, len(pr.nodes))
	}
	name := &pr.crmHomeNames[slices.Index(pr.nodes, home)]
	if *name == "" {
		*name = fmt.Sprintf("prog%d/crm-home%d", pr.id, home)
	}
	return *name
}

// superviseBatch runs one per-home CRM batch. With CRMTimeout armed it is
// a watchdog: a batch not done within the timeout is relaunched with
// bounded exponential backoff (abandoned attempts keep running; whichever
// finishes first completes the batch). A degraded home node therefore
// delays only its own batch by at most the escalation ladder, instead of
// pinning the whole collective phase to its stall.
func (pr *ProgramRun) superviseBatch(hp *sim.Proc, sl *homeSlot) {
	cfg := pr.r.cfg
	if cfg.CRMTimeout <= 0 {
		pr.crmBatch(hp, sl, 0)
		return
	}
	k := pr.r.cl.K
	done := &sim.Signal{}
	fin := false
	launch := func(attempt int) {
		sl.s.refs++
		k.Spawn(fmt.Sprintf("prog%d/crm-home%d/try%d", pr.id, sl.home, attempt), func(ap *sim.Proc) {
			pr.crmBatch(ap, sl, attempt)
			fin = true
			done.Broadcast()
			sl.s.release()
		})
	}
	launch(0)
	timeout := cfg.CRMTimeout
	backoff := cfg.CRMBackoff
	for retry := 0; ; retry++ {
		deadline := hp.Now() + timeout
		for !fin && hp.Now() < deadline {
			done.WaitTimeout(hp, deadline-hp.Now())
		}
		if fin {
			return
		}
		if retry >= cfg.CRMMaxRetries {
			// Out of retries: wait for an outstanding attempt — the home is
			// degraded, not gone, and the sim has no error path to lose a
			// collective batch into.
			for !fin {
				done.Wait(hp)
			}
			return
		}
		if o := pr.obs(); o.Enabled() {
			o.Instant("retry", pr.ctrlTrack(), hp.Now(),
				obs.I64("home", int64(sl.home)), obs.I64("attempt", int64(retry+1)),
				obs.Str("file", sl.s.file))
		}
		if backoff > 0 {
			hp.Sleep(backoff)
			backoff *= 2
		}
		launch(retry + 1)
		timeout *= 2
	}
}

// crmBatch performs one attempt of a per-home batch. An I/O failure (every
// replica of a needed stripe down) is surfaced through pr.fail rather than
// stalling the batch: the attempt completes, the collective phase moves
// on, and the run finishes carrying the error.
func (pr *ProgramRun) crmBatch(hp *sim.Proc, sl *homeSlot, attempt int) {
	file, batch, home := sl.s.file, sl.batch, sl.home
	cl := pr.r.cl.FS.Client(home)
	var rc obs.Ctx
	if o := pr.obs(); o.Enabled() {
		rc = o.StartRequest(fmt.Sprintf("prog%d/crm/home%d", pr.id, home))
	}
	start := hp.Now()
	verb := "crm-read"
	switch sl.s.op {
	case crmWrite:
		verb = "crm-writeback"
		pr.fail(cl.Write(hp, file, batch, pr.crmOrigin, rc))
	case crmRead:
		pr.fail(cl.Read(hp, file, batch, pr.crmOrigin, rc))
	case crmPrefetch:
		verb = "crm-prefetch"
		if err := cl.Read(hp, file, batch, pr.crmOrigin, rc); err != nil {
			// A failed prefetch must not populate the cache with bytes the
			// servers never produced.
			pr.fail(err)
			break
		}
		pr.cache.PutClean(hp, home, rc, file, batch)
	}
	if rc.Traced() {
		pr.obs().Span(rc.ID, obs.StageRequest, rc.Track, start, hp.Now(),
			obs.Str("verb", verb), obs.I64("bytes", ext.Total(batch)),
			obs.I64("extents", int64(len(batch))),
			obs.I64("attempt", int64(attempt)))
	}
}

// clipToFile bounds prefetch extents to the file's known size (alignment
// must not read past EOF), clipping in place in extents, which the caller
// owns. The bound is the larger of the workload's declared static size and
// the size the metadata server currently records — files grown by
// writebacks keep their tails prefetchable.
func (pr *ProgramRun) clipToFile(file string, extents []ext.Extent) []ext.Extent {
	size := pr.r.cl.FS.FileSize(file)
	for _, fs := range pr.prog.Files() {
		if fs.Name == file && fs.Size > size {
			size = fs.Size
		}
	}
	if size == 0 {
		return extents
	}
	out := extents[:0]
	for _, e := range extents {
		if c, ok := e.Clip(0, size); ok {
			out = append(out, c)
		}
	}
	return out
}

// checkMisPrefetchFastPath is PEC's immediate guard: once the last
// misCyclesToDisable cycles were all above the mis-prefetch threshold, the
// data-driven mode is disabled on the spot, bounding the wasted prefetching
// to a few cycles (the paper's "one-time overhead", §V-F).
func (pr *ProgramRun) checkMisPrefetchFastPath() {
	cfg := pr.r.cfg
	if pr.disabled || len(pr.misSamples) < misCyclesToDisable {
		return
	}
	for _, s := range pr.misSamples[len(pr.misSamples)-misCyclesToDisable:] {
		if s <= cfg.MisPrefetchThreshold {
			return
		}
	}
	pr.disabled = true
	pr.setDataDriven(false)
}
