package harness

import (
	"fmt"
	"math"
	"sort"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/metrics"
	"dualpar/internal/tenant"
)

// The multitenant experiment shares one cluster among competing tenants: a
// seeded workload generator (internal/tenant) launches hundreds of small
// jobs at Poisson, bursty, or closed-loop arrival times, and the
// cluster-wide arbiter rations data-driven grants among the tenants under a
// pluggable policy. The reproduction target is datacenter-shaped: fcfs lets
// a hot tenant monopolize the grants (its flood re-claims every freed grant
// at submission, before a waiting cold job's next slot retry), so the cold
// tenants' tail slowdown converges to the hot tenant's; fair/prio give each
// tenant a reservation it can reclaim by revocation, so cold tenants keep
// data-driven access through the flood at a small cost to the hot one.
// Stretch is a job's co-run elapsed time over the same class+mode job run
// alone on an idle cluster; Jain's index is computed over the per-tenant
// mean stretches.

// jobScale is the tenant job size multiplier: full-size runs double the
// quick sizes.
func (o Opts) jobScale() int64 {
	if o.Quick {
		return 1
	}
	return 2
}

// mixJob is one generated job's measured outcome.
type mixJob struct {
	job      tenant.Job
	elapsed  time.Duration
	bytes    int64
	started  time.Duration
	ended    time.Duration
	finished bool
}

// mixOut is one shared-cluster run's full outcome.
type mixOut struct {
	jobs     []mixJob
	cl       *cluster.Cluster
	finished bool
	grants   int64
	denies   int64
	revokes  int64
}

// runTenantMix executes the full generated schedule for tc on one shared
// tenanted cluster (see core.Runner.SubmitTenants), through o's run phase.
func (o Opts) runTenantMix(tc tenant.Config) *mixOut {
	cfg := o.config()
	cfg.Tenancy = &tc
	cl := cluster.New(cfg)
	ddCfg := core.DefaultConfig()
	// Tiny jobs live for seconds; a sub-second slot gives a denied job
	// several grant retries within its lifetime.
	ddCfg.SlotEvery = 250 * time.Millisecond
	var sched []tenant.Job
	var runs []*core.ProgramRun
	finished := o.run(cl, 30*time.Minute, ddCfg, "|"+tc.String(), func(r *core.Runner) {
		sched, runs = r.SubmitTenants(tc, o.jobScale())
	})
	out := &mixOut{cl: cl, finished: finished}
	for i, pr := range runs {
		if pr == nil {
			continue // arrival driver ran out of budget before submitting
		}
		out.jobs = append(out.jobs, mixJob{
			job:      sched[i],
			elapsed:  pr.Elapsed(),
			bytes:    pr.Instr().TotalBytes(),
			started:  pr.StartedAt,
			ended:    pr.EndedAt,
			finished: pr.Done,
		})
	}
	arb := cl.Arbiter()
	for t := 0; t < arb.Tenants(); t++ {
		out.grants += arb.Grants(t)
		out.denies += arb.Denies(t)
		out.revokes += arb.Revokes(t)
	}
	return out
}

// soloKey indexes the stretch baselines by (class, mode).
type soloKey struct{ class, mode string }

// soloBaselines measures each (class, mode) job template once, alone on an
// idle untenanted cluster — the stretch denominators. Computed once per
// experiment and shared read-only by all sweep cells.
func (o Opts) soloBaselines(ranks int) map[soloKey]time.Duration {
	ddCfg := core.DefaultConfig()
	ddCfg.SlotEvery = 250 * time.Millisecond
	classes, modes := []string{"s", "m", "l"}, []string{"dualpar", "vanilla"}
	nm := len(modes)
	elapsed := sweep(o, grid("multitenant/solo", classes, modes), func(i int) time.Duration {
		d := core.TenantJob(tenant.Job{Class: classes[i/nm], Mode: modes[i%nm]}, ranks, o.jobScale())
		d.FileName = "solo.dat"
		ms, _ := o.execute(false, time.Hour, ddCfg,
			[]runSpec{{prog: d, mode: core.TenantMode(modes[i%nm])}})
		return ms[0].elapsed
	})
	base := make(map[soloKey]time.Duration)
	for i, d := range elapsed {
		base[soloKey{classes[i/nm], modes[i%nm]}] = d
	}
	return base
}

// mixStats aggregates one cell's outcome into the reported metrics.
type mixStats struct {
	jobs        int
	unfinished  int
	peak        int // max simultaneously running jobs
	aggMBs      float64
	meanStretch float64
	worstP99    float64 // worst tenant's p99 stretch
	jain        float64 // Jain's fairness index over per-tenant mean stretch
	perTenant   []float64
}

// summarize computes per-tenant stretch distributions, the fairness
// metrics, the aggregate throughput, and the peak job concurrency.
func summarize(out *mixOut, base map[soloKey]time.Duration, tenants int) mixStats {
	st := mixStats{jobs: len(out.jobs)}
	perTenant := make([][]float64, tenants)
	var bytes int64
	var first, last time.Duration
	first = time.Duration(math.MaxInt64)
	type edge struct {
		at    time.Duration
		delta int
	}
	var edges []edge
	var sum float64
	var n int
	for _, mj := range out.jobs {
		if !mj.finished {
			st.unfinished++
			continue
		}
		bytes += mj.bytes
		if mj.started < first {
			first = mj.started
		}
		if mj.ended > last {
			last = mj.ended
		}
		edges = append(edges, edge{mj.started, +1}, edge{mj.ended, -1})
		solo := base[soloKey{mj.job.Class, mj.job.Mode}]
		if solo <= 0 {
			continue
		}
		x := float64(mj.elapsed) / float64(solo)
		perTenant[mj.job.Tenant] = append(perTenant[mj.job.Tenant], x)
		sum += x
		n++
	}
	if n > 0 {
		st.meanStretch = sum / float64(n)
	}
	if last > first {
		st.aggMBs = float64(bytes) / (1 << 20) / (last - first).Seconds()
	}
	// Peak concurrency: sweep the start/end edges; ends sort before starts
	// at the same instant, so back-to-back jobs do not count as overlapping.
	sort.Slice(edges, func(i, k int) bool {
		if edges[i].at != edges[k].at {
			return edges[i].at < edges[k].at
		}
		return edges[i].delta < edges[k].delta
	})
	cur := 0
	for _, e := range edges {
		cur += e.delta
		if cur > st.peak {
			st.peak = cur
		}
	}
	// Per-tenant p99 stretch and Jain's index over the per-tenant means.
	var sumX, sumX2 float64
	var nt int
	for t := 0; t < tenants; t++ {
		xs := perTenant[t]
		if len(xs) == 0 {
			st.perTenant = append(st.perTenant, 0)
			continue
		}
		p99 := metrics.NearestRank(xs, 99)
		st.perTenant = append(st.perTenant, p99)
		if p99 > st.worstP99 {
			st.worstP99 = p99
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		sumX += mean
		sumX2 += mean * mean
		nt++
	}
	if nt > 0 && sumX2 > 0 {
		st.jain = sumX * sumX / (float64(nt) * sumX2)
	}
	return st
}

// multitenantSpecs returns the sweep's tenancy specs (the experiment's cells
// are written in the -tenants spec grammar, exercising the parser on the
// same path users take). The first three cells differ only in policy — the
// fcfs-vs-fair fairness comparison the experiment exists for.
func multitenantSpecs(quick bool) []string {
	if quick {
		return []string{
			"tenants:4,arrival=burst:125@50ms,policy=fcfs,grants=48,cache=64M,jobs=125,ranks=2,hot=0x3",
			"tenants:4,arrival=burst:125@50ms,policy=fair,grants=48,cache=64M,jobs=125,ranks=2,hot=0x3",
			"tenants:4,arrival=burst:125@50ms,policy=prio,grants=48,cache=64M,jobs=125,ranks=2,hot=0x3",
			"tenants:4,arrival=poisson:12,policy=fcfs,grants=12,cache=64M,jobs=40,ranks=2,hot=0x6",
			"tenants:4,arrival=poisson:12,policy=fair,grants=12,cache=64M,jobs=40,ranks=2,hot=0x6",
			"tenants:4,arrival=poisson:12,policy=prio,grants=12,cache=64M,jobs=40,ranks=2,hot=0x6",
			"tenants:4,arrival=poisson:300,policy=fair,grants=48,cache=64M,jobs=40,ranks=2",
			"tenants:2,arrival=burst:60@50ms,policy=fair,grants=48,cache=64M,jobs=60,ranks=2",
			"tenants:8,arrival=burst:30@50ms,policy=fair,grants=48,cache=64M,jobs=30,ranks=2",
			"tenants:4,arrival=closed:4x4:5ms,policy=fair,grants=48,ranks=2",
		}
	}
	return []string{
		"tenants:4,arrival=burst:250@50ms,policy=fcfs,grants=64,cache=96M,jobs=250,ranks=2,hot=0x3",
		"tenants:4,arrival=burst:250@50ms,policy=fair,grants=64,cache=96M,jobs=250,ranks=2,hot=0x3",
		"tenants:4,arrival=burst:250@50ms,policy=prio,grants=64,cache=96M,jobs=250,ranks=2,hot=0x3",
		"tenants:4,arrival=poisson:12,policy=fcfs,grants=12,cache=64M,jobs=60,ranks=2,hot=0x6",
		"tenants:4,arrival=poisson:12,policy=fair,grants=12,cache=64M,jobs=60,ranks=2,hot=0x6",
		"tenants:4,arrival=poisson:12,policy=prio,grants=12,cache=64M,jobs=60,ranks=2,hot=0x6",
		"tenants:4,arrival=poisson:150,policy=fair,grants=64,cache=96M,jobs=80,ranks=2",
		"tenants:4,arrival=poisson:300,policy=fair,grants=64,cache=96M,jobs=80,ranks=2",
		"tenants:4,arrival=poisson:600,policy=fair,grants=64,cache=96M,jobs=80,ranks=2",
		"tenants:2,arrival=burst:120@50ms,policy=fair,grants=64,cache=96M,jobs=120,ranks=2",
		"tenants:8,arrival=burst:60@50ms,policy=fair,grants=64,cache=96M,jobs=60,ranks=2",
		"tenants:4,arrival=closed:8x6:5ms,policy=fair,grants=64,ranks=2",
	}
}

// Multitenant sweeps the shared-cluster datacenter mode over arrival
// process x policy x tenant count. Each cell generates its schedule from
// the seeded tenant generator, runs every job on one tenanted cluster, and
// reports aggregate throughput, per-tenant tail slowdown (p99 stretch vs a
// solo run of the same job), Jain's fairness index, and the peak number of
// simultaneously running jobs.
func Multitenant(o Opts) *Result {
	res := &Result{
		ID:    "multitenant",
		Title: "Multi-tenant shared cluster: arrival x policy x tenants under the grant arbiter",
		Table: &metrics.Table{Header: []string{
			"policy", "arrival", "tenants", "jobs", "peak", "agg_mbs",
			"mean_str", "worst_p99", "jain", "granted", "denied", "revoked"}},
	}
	specs := multitenantSpecs(o.Quick)
	base := o.soloBaselines(2)
	res.note("stretch = co-run elapsed / solo elapsed for the same (class, mode) job; worst_p99 is the worst tenant's p99 stretch; jain is Jain's index over per-tenant mean stretch")
	res.note("solo baselines (ms): s/dd=%s s/van=%s m/dd=%s m/van=%s l/dd=%s l/van=%s",
		msec(base[soloKey{"s", "dualpar"}]), msec(base[soloKey{"s", "vanilla"}]),
		msec(base[soloKey{"m", "dualpar"}]), msec(base[soloKey{"m", "vanilla"}]),
		msec(base[soloKey{"l", "dualpar"}]), msec(base[soloKey{"l", "vanilla"}]))

	outs := sweep(o, each("multitenant/%s", specs), func(i int) notedRow {
		spec := specs[i]
		tc, err := tenant.ParseSpec(spec)
		if err != nil {
			panic(err)
		}
		tc.Seed = o.seed()
		o.logf("multitenant: %s", spec)
		mix := o.runTenantMix(tc)
		st := summarize(mix, base, tc.Tenants)
		var out notedRow
		if st.unfinished > 0 {
			out.notes = append(out.notes, fmt.Sprintf(
				"%s: %d of %d jobs did not finish in budget", spec, st.unfinished, st.jobs))
		}
		out.row = []string{
			string(tc.Policy), tc.Arrival.String(), fmt.Sprintf("%d", tc.Tenants),
			fmt.Sprintf("%d", st.jobs), fmt.Sprintf("%d", st.peak), mb(st.aggMBs),
			fmt.Sprintf("%.2f", st.meanStretch), fmt.Sprintf("%.2f", st.worstP99),
			fmt.Sprintf("%.3f", st.jain),
			fmt.Sprintf("%d", mix.grants), fmt.Sprintf("%d", mix.denies),
			fmt.Sprintf("%d", mix.revokes),
		}
		return out
	})
	res.addRows(outs)
	return res
}
