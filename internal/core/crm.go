package core

import (
	"fmt"
	"slices"
	"sort"

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
// home node, in parallel, waiting for all. Each home's pieces arrive in
// offset order, so joining touching ones on append keeps its batch
// canonical.
func (pr *ProgramRun) issueByHome(p *sim.Proc, file string, extents []ext.Extent, op crmOp) {
	chunk := pr.r.cfg.ChunkBytes
	perHome := make(map[int][]ext.Extent)
	ext.VisitSplit(extents, chunk, func(piece ext.Extent) {
		home := pr.cache.Home(piece.Off / chunk)
		lst := perHome[home]
		if n := len(lst); n > 0 && lst[n-1].End() == piece.Off {
			lst[n-1].Len += piece.Len
		} else {
			perHome[home] = append(lst, piece)
		}
	})
	homes := make([]int, 0, len(perHome))
	for h := range perHome {
		homes = append(homes, h)
	}
	sort.Ints(homes)
	k := pr.r.cl.K
	wg := k.NewWaitGroup()
	for _, home := range homes {
		home := home
		batch := perHome[home]
		wg.Add(1)
		k.Spawn(pr.crmHomeName(home), func(hp *sim.Proc) {
			defer wg.Done()
			pr.superviseBatch(hp, file, batch, op, home)
		})
	}
	wg.Wait(p)
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
func (pr *ProgramRun) superviseBatch(hp *sim.Proc, file string, batch []ext.Extent, op crmOp, home int) {
	cfg := pr.r.cfg
	if cfg.CRMTimeout <= 0 {
		pr.crmBatch(hp, file, batch, op, home, 0)
		return
	}
	k := pr.r.cl.K
	done := k.NewSignal()
	fin := false
	launch := func(attempt int) {
		k.Spawn(fmt.Sprintf("prog%d/crm-home%d/try%d", pr.id, home, attempt), func(ap *sim.Proc) {
			pr.crmBatch(ap, file, batch, op, home, attempt)
			fin = true
			done.Broadcast()
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
				obs.I64("home", int64(home)), obs.I64("attempt", int64(retry+1)),
				obs.Str("file", file))
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
func (pr *ProgramRun) crmBatch(hp *sim.Proc, file string, batch []ext.Extent, op crmOp, home, attempt int) {
	cl := pr.r.cl.FS.Client(home)
	var rc obs.Ctx
	if o := pr.obs(); o.Enabled() {
		rc = o.StartRequest(fmt.Sprintf("prog%d/crm/home%d", pr.id, home))
	}
	start := hp.Now()
	verb := "crm-read"
	switch op {
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
