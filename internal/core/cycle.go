package core

import (
	"fmt"
	"slices"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
	"dualpar/internal/workloads"
)

// controller orchestrates data-driven cycles for one program (PEC + CRM
// coordination, paper §IV-C): ranks suspend as they miss the cache (reads)
// or fill their quota (writes); ghosts record future reads; when every
// ghost has paused and every live rank participates — or the expected
// cache-fill deadline expires — CRM writes back dirty data, serves the
// batched prefetch, and resumes everyone.
type controller struct {
	pr *ProgramRun

	state        int // 0 idle, 1 filling, 2 serving
	gen          int // cycle generation
	resume       sim.Signal
	abort        sim.Signal // interrupts sleeping ghosts when the cycle serves
	participants int
	ghostsActive int
	stopGhosts   bool
	wish         *fileExtents // the coming batch
	wish2        *fileExtents // pipeline overflow (served in background)
	cycles       int64

	// Storage recycled across cycles. A wish list is spare only while no
	// CRM proc holds it.
	spareWish  sim.Pool[fileExtents]
	ghostNames []string // per rank, formatted on its first ghost
	crmName    string   // formatted on the first serve
}

const (
	ctrlIdle = iota
	ctrlFilling
	ctrlServing
)

func newController(pr *ProgramRun) *controller {
	return &controller{
		pr:    pr,
		wish:  new(fileExtents),
		wish2: new(fileExtents),
	}
}

// Cycles reports how many data-driven cycles have completed.
func (c *controller) Cycles() int64 { return c.cycles }

// join registers a participant, arming the fill deadline on the first one.
func (c *controller) join(p *sim.Proc) int {
	if c.state == ctrlIdle {
		c.state = ctrlFilling
		c.stopGhosts = false
		if o := c.pr.obs(); o.Enabled() {
			o.Instant("cycle.fill", c.pr.ctrlTrack(), p.Now(), obs.I64("gen", int64(c.gen)))
		}
		c.armDeadline()
	}
	c.participants++
	return c.gen
}

// armDeadline schedules the expected-time-to-fill cutoff: the quota divided
// by the recent per-rank consumption rate, clamped (paper §IV-C).
func (c *controller) armDeadline() {
	cfg := c.pr.r.cfg
	bps := c.pr.recentRankBps
	if bps <= 0 {
		bps = 1e6
	}
	wait := time.Duration(float64(cfg.CacheQuotaBytes) / bps * float64(time.Second))
	if wait < minFillWait {
		wait = minFillWait
	}
	if wait > maxFillWait {
		wait = maxFillWait
	}
	gen := c.gen
	c.pr.r.cl.K.After(wait, func() {
		if c.gen != gen || c.state != ctrlFilling {
			return
		}
		c.stopGhosts = true
		c.serve()
	})
}

// waitReadCycle suspends a rank that missed the cache: its pending request
// is guaranteed into the batch, a ghost is forked from the rank's current
// position, and the rank sleeps until the cycle is served.
func (c *controller) waitReadCycle(p *sim.Proc, rank int, gen workloads.RankGen, op workloads.Op, rc obs.Ctx) {
	myGen := c.join(p)
	susStart := p.Now()
	c.noteSuspend(p, rank, "read-miss")
	// The triggering request itself is always served (§IV-C: prefetch
	// includes the data the process and its peers are anticipated to read,
	// starting with what it is blocked on).
	c.wish.add(op.File, op.Extents)
	c.startGhost(rank, gen, op)
	c.maybeServe()
	for c.gen == myGen {
		c.resume.Wait(p)
	}
	c.noteResume(p, rank)
	if rc.Traced() {
		c.pr.obs().Span(rc.ID, obs.StageSuspend, rc.Track, susStart, p.Now(),
			obs.Str("why", "read-miss"), obs.I64("gen", int64(myGen)))
	}
}

// waitWriteback suspends a rank whose dirty quota filled until the next
// cycle's writeback drains the cache. The caller accounts the time.
func (c *controller) waitWriteback(p *sim.Proc, rank int, rc obs.Ctx) {
	myGen := c.join(p)
	susStart := p.Now()
	c.noteSuspend(p, rank, "write-quota")
	c.maybeServe()
	for c.gen == myGen {
		c.resume.Wait(p)
	}
	c.noteResume(p, rank)
	if rc.Traced() {
		c.pr.obs().Span(rc.ID, obs.StageSuspend, rc.Track, susStart, p.Now(),
			obs.Str("why", "write-quota"), obs.I64("gen", int64(myGen)))
	}
}

// noteSuspend and noteResume mark one rank's suspension window on its own
// trace track. With tracing off they build nothing.
func (c *controller) noteSuspend(p *sim.Proc, rank int, why string) {
	if o := c.pr.obs(); o.Enabled() {
		o.Instant("rank.suspend", fmt.Sprintf("prog%d/rank%d", c.pr.id, rank),
			p.Now(), obs.Str("why", why), obs.I64("gen", int64(c.gen)))
	}
}

func (c *controller) noteResume(p *sim.Proc, rank int) {
	if o := c.pr.obs(); o.Enabled() {
		o.Instant("rank.resume", fmt.Sprintf("prog%d/rank%d", c.pr.id, rank),
			p.Now(), obs.I64("gen", int64(c.gen)))
	}
}

// startGhost forks the pre-execution for one suspended rank. The ghost
// re-executes computation (charged in virtual time on spare cores), records
// read requests without issuing them, skips communication and writes, and
// pauses at the rank's quota (§IV-C). It runs from a recycled ghostEnv
// whose clone the generator overwrites, so once the pool is warm a fork
// allocates its Proc and nothing more.
func (c *controller) startGhost(rank int, gen workloads.RankGen, pending workloads.Op) {
	c.ghostsActive++
	e := c.pr.r.ghostEnvs.Get()
	if e.run == nil {
		e.run = e.ghost
	}
	if e.c != c {
		// The recorder keeps the file keys of the program it last served;
		// another program's would pile up in a run of many programs.
		clear(e.recorded)
		e.c = c
	}
	e.gen, e.clone, e.bytes = c.gen, gen.Clone(e.clone), pending.Bytes()
	e.record(pending.File, pending.Extents)
	c.pr.r.cl.K.Spawn(c.ghostName(rank), e.run)
}

// ghostName is the name of rank's ghosts, formatted once per program.
func (c *controller) ghostName(rank int) string {
	if c.ghostNames == nil {
		c.ghostNames = make([]string, c.pr.prog.Ranks())
	}
	name := &c.ghostNames[rank]
	if *name == "" {
		*name = fmt.Sprintf("prog%d/ghost%d", c.pr.id, rank)
	}
	return *name
}

// ghost is the body of one ghost Proc.
func (e *ghostEnv) ghost(p *sim.Proc) {
	c, myGen, clone := e.c, e.gen, e.clone
	quota := c.pr.r.cfg.CacheQuotaBytes
	limit := quota * int64(c.pr.r.cfg.PipelineDepth)
	defer func() {
		e.reset()
		c.pr.r.ghostEnvs.Put(e)
		if c.gen == myGen {
			c.ghostsActive--
			c.maybeServe()
		}
	}()
	// Phase 1 (the paper's pre-execution): record up to the quota with
	// the computation retained (§IV-C). A serve — deadline or full
	// participation — interrupts any in-progress compute via abort.
	interrupted := false
	for e.bytes < quota && !interrupted {
		if c.stopGhosts || c.gen != myGen {
			interrupted = true
			break
		}
		op := clone.Next(e)
		switch op.Kind {
		case workloads.OpDone:
			return
		case workloads.OpCompute:
			if c.abort.WaitTimeout(p, op.Dur) {
				interrupted = true // cycle is serving; stop sleeping
			}
		case workloads.OpRead:
			if c.gen != myGen {
				return
			}
			c.wish.add(op.File, op.Extents)
			e.record(op.File, op.Extents)
			e.bytes += op.Bytes()
		case workloads.OpWrite, workloads.OpBarrier:
			// Writes produce no effects during pre-execution;
			// synchronization is skipped (peers' ghosts may not exist).
		}
	}
	if c.gen != myGen {
		return
	}
	// Phase 2 (extension, PipelineDepth > 1): record the overflow wave
	// in stripped mode (Strategy-2 style, computation skipped):
	// prediction only, instantaneous, completed before the serve
	// snapshot — the mis-prefetch guard is the safety net for the
	// accuracy it gives up.
	for e.bytes < limit {
		op := clone.Next(e)
		switch op.Kind {
		case workloads.OpDone:
			return
		case workloads.OpRead:
			c.wish2.add(op.File, op.Extents)
			e.record(op.File, op.Extents)
			e.bytes += op.Bytes()
		case workloads.OpCompute, workloads.OpWrite, workloads.OpBarrier:
		}
	}
}

// maybeServe starts the CRM service phase once every live rank participates
// and all ghosts have paused. If all current ghosts have paused but some
// live ranks have not joined, a short grace period lets late lockstep ranks
// batch in before serving; the fill deadline remains the hard stop.
func (c *controller) maybeServe() {
	if c.state != ctrlFilling {
		return
	}
	alive := c.pr.prog.Ranks() - c.pr.doneRanks
	if c.participants >= alive && c.ghostsActive == 0 {
		c.serve()
		return
	}
	if c.ghostsActive == 0 && c.participants > 0 {
		g := c.pr.r.graces.Get()
		if g.expire == nil {
			g.expire = g.fire
		}
		g.c, g.gen, g.count = c, c.gen, c.participants
		c.pr.r.cl.K.After(joinGrace, g.expire)
	}
}

// grace is one pending join grace: the generation and participant count it
// was armed at, and its expire callback, bound once. Graces overlap (a
// rank that joins during one arms another), so each keeps its own pair;
// it serves only if nothing moved since it was armed. A grace returns to
// the Runner's pool when it fires.
type grace struct {
	c          *controller
	gen, count int
	expire     func() // fire, bound once
}

func (g *grace) fire() {
	c := g.c
	serve := c.state == ctrlFilling && c.gen == g.gen && c.participants == g.count && c.ghostsActive == 0
	g.c = nil
	c.pr.r.graces.Put(g)
	if serve {
		c.serve()
	}
}

// serve snapshots the batch and runs CRM in a dedicated proc.
func (c *controller) serve() {
	if c.state != ctrlFilling {
		return
	}
	c.state = ctrlServing
	c.stopGhosts = true
	if o := c.pr.obs(); o.Enabled() {
		o.Instant("cycle.serve", c.pr.ctrlTrack(), c.pr.r.cl.K.Now(),
			obs.I64("gen", int64(c.gen)), obs.I64("participants", int64(c.participants)))
	}
	// Wake sleeping ghosts so they can flush their pipelined overflow
	// before the snapshot; their wakeups run before the After(0) event.
	c.abort.Broadcast()
	k := c.pr.r.cl.K
	k.After(0, func() {
		// The CRM proc owns this pair until it hands them back; the next
		// cycle fills a fresh pair meanwhile.
		wish, wish2 := c.wish, c.wish2
		c.wish, c.wish2 = c.spareWish.Get(), c.spareWish.Get()
		if c.crmName == "" {
			c.crmName = fmt.Sprintf("prog%d/crm", c.pr.id)
		}
		k.Spawn(c.crmName, func(p *sim.Proc) {
			c.pr.crmServe(p, wish)
			c.finishCycle()
			// The pipelined wave runs after the ranks resume, overlapping
			// the fetch with their consumption of the first wave.
			c.pr.crmPrefetch(p, wish2)
			wish.reset()
			wish2.reset()
			c.spareWish.Put(wish)
			c.spareWish.Put(wish2)
		})
	})
}

// finishCycle resumes all suspended ranks and opens the next generation.
func (c *controller) finishCycle() {
	c.cycles++
	if o := c.pr.obs(); o.Enabled() {
		o.Instant("cycle.resume", c.pr.ctrlTrack(), c.pr.r.cl.K.Now(),
			obs.I64("cycle", c.cycles), obs.I64("gen", int64(c.gen)))
	}
	c.gen++
	c.state = ctrlIdle
	c.participants = 0
	c.ghostsActive = 0
	for i := range c.pr.dirtyUsed {
		c.pr.dirtyUsed[i] = 0
	}
	c.resume.Broadcast()
}

// ghostEnv is one ghost's state, recycled across ghosts. As the ghost's
// workloads.Env it hides the content of reads recorded but not served
// during pre-execution: the generator sees zeros for them, reproducing the
// paper's mis-prediction under data dependence.
type ghostEnv struct {
	c        *controller
	run      func(*sim.Proc) // ghost, bound once
	recorded map[string][]ext.Extent

	gen   int               // cycle generation the ghost records for
	clone workloads.RankGen // the suspended rank's generator, cloned; kept as the next clone's storage
	bytes int64             // bytes recorded so far
}

func (e *ghostEnv) record(file string, extents []ext.Extent) {
	if e.recorded == nil {
		e.recorded = make(map[string][]ext.Extent)
	}
	xs := e.recorded[file]
	for _, x := range extents {
		xs = ext.Insert(xs, x)
	}
	e.recorded[file] = xs
}

// reset forgets every recorded read but keeps each file's key and slice
// capacity, so a pooled recorder serves the next ghost without regrowing.
// The clone stays: the next ghost's generator clones into it.
func (e *ghostEnv) reset() {
	for f, xs := range e.recorded {
		e.recorded[f] = xs[:0]
	}
}

// Value implements workloads.Env. The recorded list is canonical (sorted,
// disjoint), so a binary search finds the one extent that could hold off.
func (e *ghostEnv) Value(file string, off int64) int64 {
	_, hidden := slices.BinarySearchFunc(e.recorded[file], off, func(r ext.Extent, off int64) int {
		switch {
		case r.End() <= off:
			return -1
		case r.Off > off:
			return 1
		}
		return 0
	})
	if hidden {
		return 0
	}
	return workloads.Content(file, off)
}
