package core

import (
	"fmt"
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
		merged := ext.MergeWithHoles(dirty, cfg.HoleBytes)
		holes := ext.Holes(dirty, merged)
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
		pr.obs().Instant("cache.misprefetch", pr.ctrlTrack(), p.Now(),
			obs.F64("ratio", ratio))
		pr.checkMisPrefetchFastPath()
	}
	pr.consumedCycle = 0
	pr.prefetchedCycle = 0

	// Phase 2: batched prefetch of the ghosts' recorded reads.
	pr.crmPrefetch(p, wish)
}

// crmPrefetch serves a batched prefetch: sort, merge, absorb holes, align
// to the cache chunk, and issue per home node.
func (pr *ProgramRun) crmPrefetch(p *sim.Proc, wish *fileExtents) {
	cfg := pr.r.cfg
	for _, file := range wish.files {
		merged := ext.MergeWithHoles(wish.byFile[file], cfg.HoleBytes)
		aligned := ext.AlignTo(merged, cfg.Memcache.ChunkBytes)
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

// issueByHome partitions extents by their chunks' home nodes and issues one
// sorted list-I/O batch per home node, in parallel, waiting for all.
func (pr *ProgramRun) issueByHome(p *sim.Proc, file string, extents []ext.Extent, op crmOp) {
	chunk := pr.r.cfg.Memcache.ChunkBytes
	perHome := make(map[int][]ext.Extent)
	for _, piece := range ext.SplitAt(extents, chunk) {
		home := pr.cache.Home(piece.Off / chunk)
		perHome[home] = append(perHome[home], piece)
	}
	homes := make([]int, 0, len(perHome))
	for h := range perHome {
		homes = append(homes, h)
	}
	sort.Ints(homes)
	k := pr.r.cl.K
	wg := k.NewWaitGroup()
	for _, home := range homes {
		home := home
		batch := ext.Merge(perHome[home])
		wg.Add(1)
		k.Spawn(fmt.Sprintf("prog%d/crm-home%d", pr.id, home), func(hp *sim.Proc) {
			defer wg.Done()
			pr.superviseBatch(hp, file, batch, op, home)
		})
	}
	wg.Wait(p)
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
		pr.obs().Instant("retry", pr.ctrlTrack(), hp.Now(),
			obs.I64("home", int64(home)), obs.I64("attempt", int64(retry+1)),
			obs.Str("file", file))
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
	rc := pr.obs().StartRequest(fmt.Sprintf("prog%d/crm/home%d", pr.id, home))
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
// must not read past EOF). The bound is the larger of the workload's
// declared static size and the size the metadata server currently records
// — files grown by writebacks keep their tails prefetchable.
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
	var out []ext.Extent
	for _, e := range extents {
		if c, ok := e.Clip(0, size); ok {
			out = append(out, c)
		}
	}
	return out
}

// checkMisPrefetchFastPath is PEC's immediate guard: once the last
// MisCyclesToDisable cycles were all above the mis-prefetch threshold, the
// data-driven mode is disabled on the spot, bounding the wasted prefetching
// to a few cycles (the paper's "one-time overhead", §V-F).
func (pr *ProgramRun) checkMisPrefetchFastPath() {
	cfg := pr.r.cfg
	n := cfg.MisCyclesToDisable
	if pr.disabled || len(pr.misSamples) < n {
		return
	}
	for _, s := range pr.misSamples[len(pr.misSamples)-n:] {
		if s <= cfg.MisPrefetchThreshold {
			return
		}
	}
	pr.disabled = true
	pr.setDataDriven(false)
}
