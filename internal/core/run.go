package core

import (
	"fmt"
	"time"

	"dualpar/internal/burst"
	"dualpar/internal/check"
	"dualpar/internal/cluster"
	"dualpar/internal/ext"
	"dualpar/internal/memcache"
	"dualpar/internal/mpi"
	"dualpar/internal/mpiio"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
	"dualpar/internal/tenant"
	"dualpar/internal/workloads"
)

// Runner executes a set of programs on a cluster, each under its own
// execution mode, with one EMC daemon overseeing all DualPar programs.
type Runner struct {
	cl      *cluster.Cluster
	cfg     Config
	progs   []*ProgramRun
	emc     *emc
	audit   *check.Auditor // nil unless cfg.Audit
	started bool           // Run has begun; later Adds start immediately
}

// NewRunner creates a runner on a cluster.
func NewRunner(cl *cluster.Cluster, cfg Config) *Runner {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := &Runner{cl: cl, cfg: cfg}
	if cfg.Audit {
		r.audit = newRunAuditor(r)
	}
	r.emc = newEMC(r)
	return r
}

// Cluster returns the underlying cluster.
func (r *Runner) Cluster() *cluster.Cluster { return r.cl }

// Config returns the DualPar configuration.
func (r *Runner) Config() Config { return r.cfg }

// Programs returns the registered program runs.
func (r *Runner) Programs() []*ProgramRun { return r.progs }

// EMCDecisions returns the EMC daemon's per-slot evaluation log.
func (r *Runner) EMCDecisions() []Decision { return r.emc.Decisions }

// AddOptions tunes one program's execution.
type AddOptions struct {
	// RanksPerNode places this many ranks per compute node (default 8).
	RanksPerNode int
	// FirstNodeIndex offsets the program's first compute node within the
	// cluster's compute nodes (programs can share or use disjoint nodes).
	FirstNodeIndex int
	// StartAt delays the program's start.
	StartAt time.Duration
	// MPIIO overrides the MPI-IO hints (zero value = mpiio defaults).
	MPIIO mpiio.Config
	// Tenant attributes the program to a tenant for grant arbitration and
	// cache partitioning (meaningful only on a tenanted cluster).
	Tenant int
	// OnDone, when non-nil, fires once when the program ends (clean finish
	// or client crash) — closed-loop drivers block on it before submitting
	// their next job. It runs in simulation context.
	OnDone func()
}

// Add registers a program with the given execution mode. Programs added
// before Run start when Run does; programs added while the simulation is
// running (from simulation context — an arrival or closed-loop driver
// proc) start immediately, with opts.StartAt interpreted as absolute
// virtual time, so it must not lie in the past.
func (r *Runner) Add(prog workloads.Program, mode Mode, opts AddOptions) *ProgramRun {
	if opts.RanksPerNode <= 0 {
		opts.RanksPerNode = 8
	}
	mcfg := opts.MPIIO
	if mcfg.CollectiveBufferBytes == 0 {
		mcfg = mpiio.DefaultConfig()
	}
	id := len(r.progs)
	first := cluster.ComputeNodeBase + opts.FirstNodeIndex
	placement := mpi.BlockPlacement(prog.Ranks(), opts.RanksPerNode, first)
	pr := &ProgramRun{
		r:       r,
		id:      id,
		prog:    prog,
		mode:    mode,
		startAt: opts.StartAt,
		mpiioC:  mcfg,
		world:   mpi.NewWorld(r.cl.K, r.cl.Net, placement),
		instr:   mpiio.NewInstr(prog.Ranks()),
		files:   make(map[string]*mpiio.File),
		tenant:  opts.Tenant,
		onDone:  opts.OnDone,
	}
	pr.origins = make([]int, prog.Ranks())
	for i := range pr.origins {
		pr.origins[i] = id*10000 + i + 1
	}
	pr.crmOrigin = id*10000 + 9999
	// Distinct compute nodes hosting this program, in rank order.
	seen := make(map[int]bool)
	for _, n := range placement {
		if !seen[n] {
			seen[n] = true
			pr.nodes = append(pr.nodes, n)
		}
	}
	switch mode {
	case ModeDataDriven:
		// A pinned program on a tenanted cluster still needs a grant; if
		// the arbiter denies it now, the EMC retries every slot until one
		// frees up (the program runs conventionally meanwhile).
		pr.dataDriven = pr.acquireGrant()
		fallthrough
	case ModeDualPar, ModeStrategy2:
		mc := r.cfg.Memcache
		pr.cache = memcache.New(r.cl.K, r.cl.Net, mc, pr.nodes)
		pr.cache.SetObs(r.cl.Obs())
		if arb := r.cl.Arbiter(); arb != nil {
			pr.cache.SetQuota(arb.Quota(pr.tenant))
		}
		if r.audit != nil {
			pr.cache.SetAudit(r.audit)
			r.audit.RegisterProbe(fmt.Sprintf("memcache.used.prog%d", id), pr.cache.CheckUsed)
		}
	}
	if mode.EMCManaged() {
		pr.ctrl = newController(pr)
	}
	pr.recentRankBps = 4e6 // until EMC measures real throughput
	if inj := r.cl.Faults(); inj.HasClientCrashWindows() {
		// A client crash aborts the whole job (every program whose rank
		// space covers the crashed rank). Registered here, before the
		// kernel runs, like the server-state listeners.
		inj.OnClientState(func(rank int, at time.Duration) {
			if rank >= 0 && rank < pr.prog.Ranks() {
				pr.clientCrash(at)
			}
		})
	}
	r.progs = append(r.progs, pr)
	if r.started {
		pr.start()
		r.emc.arm() // the slot chain may have drained with everything done
	}
	return pr
}

// Run starts every registered program and the EMC daemon, then executes the
// simulation until all programs finish or until maxTime of virtual time
// elapses. It reports whether everything finished.
func (r *Runner) Run(maxTime time.Duration) bool {
	r.started = true
	for _, pr := range r.progs {
		pr.start()
	}
	r.emc.start()
	r.cl.K.RunUntil(maxTime)
	finished := true
	for _, pr := range r.progs {
		if !pr.Done {
			finished = false
		}
	}
	if r.audit != nil {
		for _, pr := range r.progs {
			// A crashed program legitimately dies with dirty cached bytes;
			// only a clean finish promises the drain.
			if pr.Done && !pr.crashed && pr.cache != nil {
				r.audit.Checkf(pr.cache.DirtyBytes() == 0, "memcache.dirty.drain",
					"program %d finished with %d dirty bytes in its cache",
					pr.id, pr.cache.DirtyBytes())
			}
		}
		if finished {
			// Byte-conservation ledgers are exact only at quiescence.
			r.audit.RunFinalProbes()
		} else {
			r.audit.RunProbes()
		}
	}
	return finished
}

// ProgramRun is one program instance under one execution mode.
type ProgramRun struct {
	r       *Runner
	id      int
	prog    workloads.Program
	mode    Mode
	startAt time.Duration
	mpiioC  mpiio.Config
	world   *mpi.World
	instr   *mpiio.Instr
	files   map[string]*mpiio.File
	origins []int
	nodes   []int
	cache   *memcache.Cache
	ctrl    *controller
	s2      *strategy2

	crmOrigin  int
	dataDriven bool
	disabled   bool          // data-driven permanently disabled by mis-prefetch
	crashed    bool          // aborted by an injected client crash
	tenant     int           // owning tenant on a tenanted cluster
	grant      *tenant.Grant // live data-driven grant from the arbiter
	onDone     func()

	// epochs tracks sealed checkpoint epochs per rank (lazily created at
	// the first OpSeal; nil for programs without checkpoint epochs).
	epochs *burst.Epochs

	// Mis-prefetch accounting (per prefetch cycle).
	prefetchedCycle int64
	consumedCycle   int64
	misSamples      []float64

	// Per-rank dirty bytes buffered in the data-driven cache.
	dirtyUsed []int64

	// log holds the requests issued since EMC's last slot (EMC-managed
	// programs only); emc is EMC's sampling and hysteresis state.
	log fileExtents
	emc emcState

	recentRankBps float64 // EMC-updated per-rank consumption rate

	StartedAt time.Duration
	EndedAt   time.Duration
	doneRanks int
	Done      bool
	ioErr     error // first surfaced I/O failure (e.g. pfs.ErrRetriesExhausted)

	// ModeSwitches logs (time, on/off) transitions for Fig 7-style plots.
	ModeSwitches []ModeSwitch
}

// ModeSwitch records a data-driven mode transition.
type ModeSwitch struct {
	At time.Duration
	On bool
}

// Prog returns the workload.
func (pr *ProgramRun) Prog() workloads.Program { return pr.prog }

// Mode returns the configured execution mode.
func (pr *ProgramRun) Mode() Mode { return pr.mode }

// Instr returns the program's MPI-IO instrumentation.
func (pr *ProgramRun) Instr() *mpiio.Instr { return pr.instr }

// World returns the program's communicator.
func (pr *ProgramRun) World() *mpi.World { return pr.world }

// Cache returns the program's global cache (nil unless DualPar/Strategy2).
func (pr *ProgramRun) Cache() *memcache.Cache { return pr.cache }

// DataDriven reports whether the program currently runs data-driven.
func (pr *ProgramRun) DataDriven() bool { return pr.dataDriven }

// Tenant returns the program's owning tenant (0 on untenanted clusters).
func (pr *ProgramRun) Tenant() int { return pr.tenant }

// Elapsed is the program's measured execution time.
func (pr *ProgramRun) Elapsed() time.Duration {
	if !pr.Done {
		return 0
	}
	return pr.EndedAt - pr.StartedAt
}

// MisSamples returns the recorded per-cycle mis-prefetch ratios.
func (pr *ProgramRun) MisSamples() []float64 { return pr.misSamples }

// Err returns the first I/O failure any of the program's ranks or its CRM
// surfaced (nil when the run was clean). A run can be Done with a non-nil
// Err: I/O errors mean data loss, not a wedged program.
func (pr *ProgramRun) Err() error { return pr.ioErr }

// fail records the program's first I/O failure. Failures do not stop the
// run — the paper's library would report the error to the application and
// keep serving other ranks — but they are surfaced in Err() and the trace
// instead of being swallowed into a stall.
func (pr *ProgramRun) fail(err error) {
	if err == nil {
		return
	}
	if pr.ioErr == nil {
		pr.ioErr = err
	}
	pr.obs().Instant("io.error", pr.ctrlTrack(), pr.r.cl.K.Now(),
		obs.I64("program", int64(pr.id)), obs.Str("error", err.Error()))
}

// Cycles reports completed data-driven cycles (0 without a controller).
func (pr *ProgramRun) Cycles() int64 {
	if pr.ctrl == nil {
		return 0
	}
	return pr.ctrl.cycles
}

// obs returns the cluster-wide collector (nil when tracing is off).
func (pr *ProgramRun) obs() *obs.Collector { return pr.r.cl.Obs() }

// ctrlTrack is the program's control-plane trace track.
func (pr *ProgramRun) ctrlTrack() string { return fmt.Sprintf("prog%d/ctrl", pr.id) }

// acquireGrant asks the cluster's arbiter for a data-driven grant (always
// granted on an untenanted cluster — no arbiter, no accounting). The
// grant is revocable: when another tenant reclaims its reserved share the
// arbiter calls back into revokeGrant and this program reverts to
// conventional mode mid-run.
func (pr *ProgramRun) acquireGrant() bool {
	arb := pr.r.cl.Arbiter()
	if arb == nil || pr.grant != nil {
		return true
	}
	pr.grant = arb.TryAcquire(pr.tenant, pr.revokeGrant)
	return pr.grant != nil
}

// releaseGrant returns the program's grant, if it holds one.
func (pr *ProgramRun) releaseGrant() {
	if pr.grant == nil {
		return
	}
	g := pr.grant
	pr.grant = nil
	g.Release()
}

// revokeGrant is the arbiter's reclaim callback: an under-reservation
// tenant needed the slot, so this program falls back to conventional mode
// for the rest of its run (any rank mid-wait on a cache fill re-issues the
// read against the PFS). The EMC's slot retry may re-admit it later if
// capacity frees up.
func (pr *ProgramRun) revokeGrant() {
	if pr.dataDriven {
		pr.setDataDriven(false) // releases the grant
	} else {
		pr.releaseGrant()
	}
}

// tryEnterDataDriven switches data-driven on, gated on a grant. False
// means the arbiter denied admission and the mode is unchanged.
func (pr *ProgramRun) tryEnterDataDriven() bool {
	if pr.dataDriven {
		return true
	}
	if !pr.acquireGrant() {
		return false
	}
	pr.setDataDriven(true)
	return true
}

// finish runs the common end-of-program path: the grant (if any) goes back
// to the arbiter and the completion callback fires.
func (pr *ProgramRun) finish() {
	pr.releaseGrant()
	if pr.onDone != nil {
		pr.onDone()
	}
}

// setDataDriven flips the mode and logs the transition. Turning the mode
// off returns the program's grant.
func (pr *ProgramRun) setDataDriven(on bool) {
	if pr.dataDriven == on {
		return
	}
	pr.dataDriven = on
	if !on {
		pr.releaseGrant()
	}
	pr.ModeSwitches = append(pr.ModeSwitches, ModeSwitch{At: pr.r.cl.K.Now(), On: on})
	state := "off"
	if on {
		state = "on"
	}
	pr.obs().Instant("mode.switch", pr.ctrlTrack(), pr.r.cl.K.Now(),
		obs.I64("program", int64(pr.id)), obs.Str("data_driven", state))
}

// file returns (opening on demand) the program's handle for a file.
func (pr *ProgramRun) file(name string) *mpiio.File {
	f := pr.files[name]
	if f == nil {
		f = mpiio.Open(pr.world, pr.r.cl.FS, name, pr.mpiioC, pr.instr, pr.origins)
		f.SetTrack(fmt.Sprintf("prog%d", pr.id))
		f.SetErrSink(pr.fail)
		pr.files[name] = f
	}
	return f
}

// start spawns the setup proc and rank procs at startAt.
func (pr *ProgramRun) start() {
	k := pr.r.cl.K
	pr.dirtyUsed = make([]int64, pr.prog.Ranks())
	k.SpawnAt(pr.startAt, fmt.Sprintf("prog%d/setup", pr.id), func(p *sim.Proc) {
		// Pre-create input files (layout only; the paper's files exist
		// before the timed runs).
		cl := pr.r.cl.FS.Client(pr.nodes[0])
		for _, fs := range pr.prog.Files() {
			if fs.Precreate && fs.Size > 0 {
				cl.Create(p, fs.Name, fs.Size)
			}
		}
		pr.StartedAt = p.Now()
		for rank := 0; rank < pr.prog.Ranks(); rank++ {
			rank := rank
			k.Spawn(fmt.Sprintf("prog%d/rank%d", pr.id, rank), func(rp *sim.Proc) {
				pr.rankLoop(rp, rank)
			})
		}
		if pr.mode == ModeStrategy2 {
			pr.s2 = newStrategy2(pr)
			pr.s2.start()
		}
	})
}

// rankLoop drives one rank's generator to completion.
func (pr *ProgramRun) rankLoop(p *sim.Proc, rank int) {
	gen := pr.prog.NewRank(rank)
	env := workloads.TrueEnv{}
	for {
		// A crashed program's surviving ranks stop at the next op boundary
		// (their in-flight op completes, then the proc exits; ranks wedged
		// in a barrier stay parked, which is harmless).
		if pr.crashed {
			return
		}
		op := gen.Next(env)
		switch op.Kind {
		case workloads.OpDone:
			pr.rankDone(p, rank)
			return
		case workloads.OpCompute:
			p.Sleep(op.Dur)
		case workloads.OpBarrier:
			pr.world.Barrier(p, rank)
		case workloads.OpRead:
			pr.read(p, rank, gen, op)
		case workloads.OpWrite:
			pr.write(p, rank, gen, op)
		case workloads.OpSeal:
			pr.seal(p, rank, op)
		default:
			panic(fmt.Sprintf("core: unknown op kind %d", op.Kind))
		}
	}
}

func (pr *ProgramRun) rankDone(p *sim.Proc, rank int) {
	pr.doneRanks++
	if pr.ctrl != nil {
		pr.ctrl.maybeServe() // the alive count just shrank
	}
	if pr.doneRanks == pr.prog.Ranks() {
		// The last rank drains any data still dirty in the global cache
		// before the program counts as finished (its cost is part of the
		// program's write time).
		if pr.cache != nil {
			for pr.cache.DirtyBytes() > 0 {
				if pr.ctrl != nil && pr.ctrl.state != ctrlIdle {
					// A cycle is mid-flight; let it finish first.
					myGen := pr.ctrl.gen
					for pr.ctrl.gen == myGen {
						pr.ctrl.resume.Wait(p)
					}
					continue
				}
				pr.crmServe(p, &fileExtents{})
			}
		}
		pr.Done = true
		pr.EndedAt = p.Now()
		pr.finish()
	}
}

// read dispatches a read op according to the current mode.
func (pr *ProgramRun) read(p *sim.Proc, rank int, gen workloads.RankGen, op workloads.Op) {
	switch {
	case pr.dataDriven:
		pr.dataDrivenRead(p, rank, gen, op)
	case pr.mode == ModeCollective:
		pr.file(op.File).ReadExtentsAll(p, rank, op.Extents)
	case pr.mode == ModeStrategy2:
		pr.s2.read(p, rank, op)
	default:
		pr.logRequest(op.File, op.Extents)
		pr.file(op.File).ReadExtents(p, rank, op.Extents)
	}
}

// write dispatches a write op according to the current mode. Epoch-tagged
// checkpoint writes take the burst-buffer path whenever the cluster has a
// tier, regardless of mode: the log is the write path, and the seal that
// follows defines the epoch's durability.
func (pr *ProgramRun) write(p *sim.Proc, rank int, gen workloads.RankGen, op workloads.Op) {
	switch {
	case op.Epoch > 0 && pr.r.cl.Burst() != nil:
		pr.burstWrite(p, rank, op)
	case pr.dataDriven:
		pr.dataDrivenWrite(p, rank, op)
	case pr.mode == ModeCollective:
		pr.file(op.File).WriteExtentsAll(p, rank, op.Extents)
	default:
		pr.logRequest(op.File, op.Extents)
		pr.file(op.File).WriteExtents(p, rank, op.Extents)
	}
}

// logRequest records a request's extents for EMC's ReqDist. Only programs
// EMC manages log: ReqDist pools no one else's requests.
func (pr *ProgramRun) logRequest(file string, extents []ext.Extent) {
	if pr.mode.EMCManaged() {
		pr.log.add(file, extents)
	}
}

// burstWrite absorbs an epoch-tagged checkpoint write into the rank's
// node-local burst log; the tier drains it to the PFS in the background.
func (pr *ProgramRun) burstWrite(p *sim.Proc, rank int, op workloads.Op) {
	start := p.Now()
	node := pr.world.Node(rank)
	rc := pr.rankRequest(rank)
	pr.r.cl.Burst().Log(node).Append(p, rank, op.Epoch, op.File, op.Extents)
	pr.logRequest(op.File, op.Extents)
	pr.instr.Span(rank, start, p.Now(), op.Bytes())
	if rc.Traced() {
		pr.obs().Span(rc.ID, obs.StageRequest, rc.Track, start, p.Now(),
			obs.Str("verb", "burst-write"), obs.I64("bytes", op.Bytes()),
			obs.I64("epoch", int64(op.Epoch)))
	}
}

// seal commits a checkpoint epoch for one rank. On the burst path it seals
// the rank's log records (making them crash-durable); on the direct path
// the preceding synchronous writes already reached the PFS, so the seal is
// pure bookkeeping. Either way the rank's sealed epoch advances, and the
// epoch every rank has sealed is the one a restart recovers.
func (pr *ProgramRun) seal(p *sim.Proc, rank int, op workloads.Op) {
	if tier := pr.r.cl.Burst(); tier != nil {
		tier.Log(pr.world.Node(rank)).Seal(p, rank, op.Epoch)
	}
	if pr.epochs == nil {
		pr.epochs = burst.NewEpochs(pr.prog.Ranks())
	}
	pr.epochs.Seal(rank, op.Epoch)
}

// clientCrash aborts the whole program at the fault window's start: ranks
// stop at their next op boundary, the node-local burst logs crash-stop
// (unsealed records will be lost), and the run counts as done-by-failure.
func (pr *ProgramRun) clientCrash(at time.Duration) {
	if pr.crashed || pr.Done {
		return
	}
	pr.crashed = true
	pr.Done = true
	pr.EndedAt = at
	pr.obs().Instant("client.crash", pr.ctrlTrack(), at, obs.I64("program", int64(pr.id)))
	if tier := pr.r.cl.Burst(); tier != nil {
		for _, n := range pr.nodes {
			tier.CrashNode(n, at)
		}
	}
	pr.finish()
}

// Crashed reports whether an injected client crash aborted the program.
func (pr *ProgramRun) Crashed() bool { return pr.crashed }

// CommittedEpoch returns the newest checkpoint epoch sealed by every rank
// (0 when no epoch committed — restart has nothing to recover).
func (pr *ProgramRun) CommittedEpoch() int {
	if pr.epochs == nil {
		return 0
	}
	return pr.epochs.Committed()
}

// dataDrivenRead serves a read from the global cache, suspending the rank
// and triggering a pre-execution cycle on a miss (paper §IV-C/D).
func (pr *ProgramRun) dataDrivenRead(p *sim.Proc, rank int, gen workloads.RankGen, op workloads.Op) {
	start := p.Now()
	node := pr.world.Node(rank)
	rc := pr.rankRequest(rank)
	endSpan := func(outcome string) {
		if rc.Traced() {
			pr.obs().Span(rc.ID, obs.StageRequest, rc.Track, start, p.Now(),
				obs.Str("verb", "dd-read"), obs.I64("bytes", op.Bytes()),
				obs.Str("outcome", outcome))
		}
	}
	const maxCycles = 8
	for attempt := 0; ; attempt++ {
		missing := pr.cache.Get(p, node, rc, op.File, op.Extents...)
		if len(missing) == 0 {
			pr.consumedCycle += op.Bytes()
			pr.logRequest(op.File, op.Extents)
			pr.instr.Span(rank, start, p.Now(), op.Bytes())
			endSpan("cache")
			return
		}
		if attempt >= maxCycles || !pr.dataDriven {
			// Safety valve (and mode reverted mid-wait): serve the rest
			// directly. ReadExtents accounts the bytes it fetches; the
			// cycle waits and the cache-served portion are charged here.
			// Close the dd-read span first: ReadExtents opens a request of
			// its own on the same track.
			pr.instr.Span(rank, start, p.Now(), op.Bytes()-ext.Total(missing))
			endSpan("fallback")
			rest := ext.Merge(missing)
			pr.logRequest(op.File, rest)
			pr.file(op.File).ReadExtents(p, rank, rest)
			return
		}
		pr.ctrl.waitReadCycle(p, rank, gen, op, rc)
	}
}

// dataDrivenWrite buffers the write in the global cache; when the rank's
// quota fills, it joins a writeback cycle (paper §IV-D).
func (pr *ProgramRun) dataDrivenWrite(p *sim.Proc, rank int, op workloads.Op) {
	start := p.Now()
	node := pr.world.Node(rank)
	rc := pr.rankRequest(rank)
	pr.cache.PutDirty(p, node, rc, op.File, op.Extents)
	pr.dirtyUsed[rank] += op.Bytes()
	pr.logRequest(op.File, op.Extents)
	if pr.dirtyUsed[rank] >= pr.r.cfg.CacheQuotaBytes {
		pr.ctrl.waitWriteback(p, rank, rc)
	}
	pr.instr.Span(rank, start, p.Now(), op.Bytes())
	if rc.Traced() {
		pr.obs().Span(rc.ID, obs.StageRequest, rc.Track, start, p.Now(),
			obs.Str("verb", "dd-write"), obs.I64("bytes", op.Bytes()))
	}
}

// rankRequest opens a fresh traced request on the rank's track, or the zero
// Ctx when tracing is off (no track string is built on the disabled path).
func (pr *ProgramRun) rankRequest(rank int) obs.Ctx {
	o := pr.obs()
	if !o.Enabled() {
		return obs.Ctx{}
	}
	return o.StartRequest(fmt.Sprintf("prog%d/rank%d", pr.id, rank))
}
