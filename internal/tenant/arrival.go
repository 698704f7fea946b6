package tenant

import (
	"math/rand"
	"sort"
	"time"
)

// Job is one generated submission: tenant t's Index-th job, arriving at
// virtual time At (open-loop kinds) or fed to worker Worker's closed loop.
// Class and Mode are drawn from the generator's size and mode mixes; Seed
// is a per-job stream for any further randomness the harness wants.
type Job struct {
	Tenant int
	Index  int
	Worker int           // closed loop only; -1 for open-loop kinds
	At     time.Duration // open-loop arrival; 0 for closed loop
	Class  string        // size class: "s", "m", or "l"
	Mode   string        // execution mode name: "dualpar" or "vanilla"
	Seed   int64
}

// Default job mixes: mostly small I/O-intensive jobs that want data-driven
// mode, a tail of medium and large ones, and a vanilla minority that never
// requests a grant. Cumulative thresholds over one uniform draw each.
const (
	classSmallP  = 0.70
	classMediumP = 0.95 // cumulative; the rest is "l"
	modeDualParP = 0.80 // the rest is "vanilla"
)

// Schedule generates the full deterministic job schedule for cfg: each
// tenant draws from an independent stream seeded from cfg.Seed, and the
// per-tenant schedules are merged by (At, Tenant, Index). Calling it twice
// with the same config yields identical slices.
func Schedule(cfg Config) []Job {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	var all []Job
	for t := 0; t < cfg.Tenants; t++ {
		all = append(all, tenantJobs(cfg, t)...)
	}
	// Merge: already sorted within each tenant; a stable insertion-style
	// sort over the concatenation would be O(n^2), so sort explicitly.
	sortJobs(all)
	return all
}

// jobsFor returns tenant t's job count (open loop) honouring the hot skew.
func jobsFor(cfg Config, t int) int {
	n := cfg.Jobs
	if cfg.HotFactor > 1 && t == cfg.HotTenant {
		n *= cfg.HotFactor
	}
	return n
}

// tenantJobs draws tenant t's schedule from its own stream. Draw order per
// job is fixed (inter-arrival, class, mode, seed) so adding a field never
// perturbs earlier jobs.
func tenantJobs(cfg Config, t int) []Job {
	r := rand.New(rand.NewSource(cfg.Seed + int64(t)*7919))
	var jobs []Job
	emit := func(worker int, at time.Duration) {
		j := Job{
			Tenant: t,
			Index:  len(jobs),
			Worker: worker,
			At:     at,
			Class:  drawClass(r),
			Mode:   drawMode(r),
			Seed:   r.Int63(),
		}
		jobs = append(jobs, j)
	}
	a := cfg.Arrival
	switch a.Kind {
	case ArrivalPoisson:
		// The hot tenant arrives at HotFactor times the rate as well as
		// submitting HotFactor times the jobs: its stream spans the same
		// wall-clock window as the cold tenants' but with proportionally
		// higher intensity — a flood, not a longer trickle.
		rate := a.Rate
		if cfg.HotFactor > 1 && t == cfg.HotTenant {
			rate *= float64(cfg.HotFactor)
		}
		at := time.Duration(0)
		for i := 0; i < jobsFor(cfg, t); i++ {
			at += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
			emit(-1, at)
		}
	case ArrivalBurst:
		for i := 0; i < jobsFor(cfg, t); i++ {
			emit(-1, a.Every*time.Duration(i/a.Size))
		}
	case ArrivalClosed:
		perWorker := a.JobsPerWorker
		if cfg.HotFactor > 1 && t == cfg.HotTenant {
			perWorker *= cfg.HotFactor
		}
		for w := 0; w < a.Workers; w++ {
			for i := 0; i < perWorker; i++ {
				emit(w, 0)
			}
		}
	}
	return jobs
}

func drawClass(r *rand.Rand) string {
	switch u := r.Float64(); {
	case u < classSmallP:
		return "s"
	case u < classMediumP:
		return "m"
	default:
		return "l"
	}
}

func drawMode(r *rand.Rand) string {
	if r.Float64() < modeDualParP {
		return "dualpar"
	}
	return "vanilla"
}

// sortJobs orders by (At, Tenant, Index) — a total order, so the merged
// schedule is unique whatever the sort algorithm.
func sortJobs(jobs []Job) {
	sort.Slice(jobs, func(i, k int) bool {
		a, b := jobs[i], jobs[k]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.Index < b.Index
	})
}
