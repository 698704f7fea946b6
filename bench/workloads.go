package main

import (
	"fmt"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/fault"
	"dualpar/internal/harness"
	"dualpar/internal/iosched"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
	"dualpar/internal/tenant"
	"dualpar/internal/workloads"
)

// buildOpts are the benchmark's hooks into one simulation. The zero value
// (apart from the seed) is the plain, untraced run the end-to-end metrics
// time.
type buildOpts struct {
	seed  int64
	audit bool                     // arm the core invariant oracles
	sched func() iosched.Algorithm // per-server elevator; nil = CFQ
	obs   *obs.Collector           // span collector; nil = tracing off
}

// simRun is one built simulation, ready to Run.
type simRun struct {
	cl      *cluster.Cluster
	r       *core.Runner
	maxTime time.Duration
	verify  bool // re-read every written byte with harness.VerifyIntegrity
}

// run executes the simulation and reports the first failure: a program that
// did not finish within the virtual time budget, a program's I/O error, or a
// violated invariant when the core oracles are armed.
func (s *simRun) run() error {
	if !s.r.Run(s.maxTime) {
		return fmt.Errorf("did not finish within %v of virtual time", s.maxTime)
	}
	for i, pr := range s.r.Programs() {
		if err := pr.Err(); err != nil {
			return fmt.Errorf("program %d: %w", i, err)
		}
	}
	return s.r.AuditErr()
}

// verifyIntegrity re-reads every written byte (paying simulated cost, so it
// runs after the fingerprint is taken and outside the timed region).
func (s *simRun) verifyIntegrity() error {
	if !s.verify {
		return nil
	}
	return harness.VerifyIntegrity(s.cl)
}

// workload is one benchmark input: how to build its simulation from a seed.
type workload struct {
	name  string
	why   string
	build func(o buildOpts) *simRun
}

// The five workloads stress different layers so that a change to one layer
// has a workload that exercises it and one that bypasses it (README.md maps
// layers to workloads). Each run's virtual time budget is the one the
// matching harness experiment passes to Runner.Run.
var allWorkloads = []workload{
	{
		name:  "dd-noncontig",
		why:   "the paper's mechanism: a noncontig column read served data-driven (EMC slots, ghost pre-execution, CRM cycles, global cache)",
		build: buildDDNoncontig,
	},
	{
		name:  "vanilla-rw",
		why:   "plain request path with a reader beside a writer: mpiio, pfs, netsim, page cache, CFQ, disk; no DualPar code",
		build: buildVanillaRW,
	},
	{
		name:  "collective-btio",
		why:   "three BTIO instances in two-phase collective I/O: mpiio planning and ext merging, little kernel work",
		build: buildCollectiveBTIO,
	},
	{
		name:  "replicated-crash",
		why:   "3-way replication through a server crash and recovery: quorum writes, failover, rebuild, fault injector",
		build: buildReplicatedCrash,
	},
	{
		name:  "tenant-flood",
		why:   "600 short jobs from a hot-tenant burst on one cluster: grant arbiter, cache quotas, EMC over many programs",
		build: buildTenantFlood,
	},
}

// workloadByName returns the named workload.
func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// clusterConfig is the paper's platform with the benchmark's hooks applied.
func clusterConfig(o buildOpts) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Seed = o.seed
	cfg.NewScheduler = o.sched
	cfg.Obs = o.obs
	return cfg
}

func coreConfig(o buildOpts) core.Config {
	cfg := core.DefaultConfig()
	cfg.Audit = o.audit
	return cfg
}

func buildDDNoncontig(o buildOpts) *simRun {
	cl := cluster.New(clusterConfig(o))
	ccfg := coreConfig(o)
	// EMC samples every 100 ms of a run that lasts about 1.1 simulated
	// seconds. The mode is pinned on: under ModeDualPar this lone program's
	// seek improvement sits near the switching threshold, so depending on
	// the seed it ran data-driven, reverted mid-run, or never switched on,
	// and host cost per run ranged from 0.2 s to 0.95 s. The quarter-size
	// cache quota makes the read take 16 CRM cycles on every seed; at the
	// 1 MiB default it took 4 or 5 by seed, re-reading up to a quarter of
	// the pages, and host cost followed.
	ccfg.SlotEvery = 100 * time.Millisecond
	ccfg.CacheQuotaBytes = 256 << 10
	r := core.NewRunner(cl, ccfg)
	r.Add(workloads.DefaultNoncontig(), core.ModeDataDriven, core.AddOptions{RanksPerNode: 8})
	return &simRun{cl: cl, r: r, maxTime: 12 * time.Hour}
}

func buildVanillaRW(o buildOpts) *simRun {
	cl := cluster.New(clusterConfig(o))
	r := core.NewRunner(cl, coreConfig(o))
	for i, write := range []bool{false, true} {
		m := workloads.DefaultMPIIOTest()
		m.FileBytes = 128 << 20
		m.Write = write
		m.FileName = fmt.Sprintf("mpiio-%d.dat", i)
		r.Add(m, core.ModeVanilla, core.AddOptions{RanksPerNode: 8})
	}
	return &simRun{cl: cl, r: r, maxTime: 12 * time.Hour}
}

func buildCollectiveBTIO(o buildOpts) *simRun {
	cl := cluster.New(clusterConfig(o))
	r := core.NewRunner(cl, coreConfig(o))
	for i := 0; i < 3; i++ {
		b := workloads.DefaultBTIO()
		b.Procs = 64
		b.TotalBytes = 2 << 20
		b.Steps = 2
		b.StepCompute = 20 * time.Millisecond
		b.FileName = fmt.Sprintf("btio-%d.dat", i)
		r.Add(b, core.ModeCollective, core.AddOptions{RanksPerNode: 8})
	}
	return &simRun{cl: cl, r: r, maxTime: 12 * time.Hour}
}

func buildReplicatedCrash(o buildOpts) *simRun {
	cfg := clusterConfig(o)
	cfg.Faults = &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.ServerCrash, Target: 2, Start: 2 * time.Second, End: 6 * time.Second},
	}}
	cfg.PFS.Replicas = 3
	cfg.PFS.DetectDelay = 100 * time.Millisecond
	// The retry-watchdog preset every fault-injecting experiment arms.
	cfg.PFS.RequestTimeout = 250 * time.Millisecond
	cfg.PFS.MaxRetries = 4
	cfg.PFS.RetryBackoff = 20 * time.Millisecond
	ccfg := coreConfig(o)
	ccfg.CRMTimeout = 2 * time.Second
	ccfg.CRMMaxRetries = 3
	ccfg.CRMBackoff = 50 * time.Millisecond
	cl := cluster.New(cfg)
	cl.FS.EnableIntegrity()
	r := core.NewRunner(cl, ccfg)

	// The availability experiment's writer and reader, three times longer
	// so the 2 s-6 s crash window lands mid-run.
	writer := workloads.DefaultCheckpoint()
	writer.Procs = 16
	writer.Compute = 150 * time.Millisecond
	writer.Checkpoints = 48
	reader := workloads.DefaultDemo()
	reader.ComputePerCall = 30 * time.Millisecond
	calls := int64(3 * 48)
	reader.FileBytes = calls * int64(reader.Procs) * int64(reader.SegsPerCall) * reader.SegBytes
	r.Add(writer, core.ModeVanilla, core.AddOptions{RanksPerNode: 8})
	r.Add(reader, core.ModeVanilla, core.AddOptions{RanksPerNode: 8, FirstNodeIndex: 2})
	return &simRun{cl: cl, r: r, maxTime: time.Hour, verify: true}
}

// tenantSpec is the multitenant experiment's hot burst cell, scaled to
// 100 jobs per tenant (the hot tenant submits three times as many).
const tenantSpec = "tenants:4,arrival=burst:100@50ms,policy=fair,grants=48,cache=64M,jobs=100,ranks=2,hot=0x3"

func buildTenantFlood(o buildOpts) *simRun {
	tc, err := tenant.ParseSpec(tenantSpec)
	if err != nil {
		panic(err) // a constant spec: only a bug gets here
	}
	tc.Seed = o.seed
	cfg := clusterConfig(o)
	cfg.Tenancy = &tc
	cl := cluster.New(cfg)
	ccfg := coreConfig(o)
	ccfg.SlotEvery = 250 * time.Millisecond
	r := core.NewRunner(cl, ccfg)
	jobs := tenant.Schedule(tc)
	nodes := cfg.ComputeNodes
	// The open-loop arrivals of dualpar-sim -tenants: one proc
	// submits each generated job at its scheduled time.
	cl.K.Spawn("tenant/arrivals", func(p *sim.Proc) {
		for i, j := range jobs {
			if j.At > p.Now() {
				p.Sleep(j.At - p.Now())
			}
			d := workloads.DefaultDemo()
			d.Procs = tc.Ranks
			d.SegBytes = 4 << 10
			d.SegsPerCall = 4
			d.FileName = fmt.Sprintf("t%dj%d.dat", j.Tenant, j.Index)
			switch j.Class {
			case "s":
				d.FileBytes = 96 << 10
			case "m":
				d.FileBytes = 192 << 10
			default:
				d.FileBytes = 384 << 10
			}
			mode := core.ModeVanilla
			if j.Mode == "dualpar" {
				mode = core.ModeDataDriven
			}
			r.Add(d, mode, core.AddOptions{
				RanksPerNode:   tc.Ranks,
				FirstNodeIndex: i % nodes,
				StartAt:        p.Now(),
				Tenant:         j.Tenant,
			})
		}
	})
	return &simRun{cl: cl, r: r, maxTime: 30 * time.Minute}
}
