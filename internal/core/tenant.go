package core

import (
	"fmt"

	"dualpar/internal/sim"
	"dualpar/internal/tenant"
	"dualpar/internal/workloads"
)

// TenantJob maps a generated tenant job onto a concrete program: a small
// interleaved-access Demo of the given rank count whose size class sets the
// file length (96/192/384 KB for s/m/l, times scale). Ranks interleave 4 KB
// segments, so vanilla execution issues strided reads while a granted
// data-driven run fetches the file as one sorted batch — the grant is worth
// something, which is what the arbiter polices.
func TenantJob(j tenant.Job, ranks int, scale int64) workloads.Demo {
	d := workloads.DefaultDemo()
	d.Procs = ranks
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
	d.FileBytes *= scale
	return d
}

// TenantMode maps the generator's mode name onto an execution mode.
// Data-driven jobs are pinned (ModeDataDriven): they request a grant at
// submission and, when denied, run conventionally while the EMC retries
// every slot.
func TenantMode(name string) Mode {
	if name == "dualpar" {
		return ModeDataDriven
	}
	return ModeVanilla
}

// SubmitTenants generates tc's job schedule and spawns the driver that
// submits it to r's tenanted cluster, each job a TenantJob of the given
// scale on its own compute node. Open-loop kinds (poisson, burst) are driven
// by a single arrival proc submitting each job at its scheduled time; the
// closed-loop kind spawns one proc per (tenant, worker) that blocks on each
// job's completion and sleeps the think time before submitting the next.
// Everything runs in simulation context, so the run is deterministic per
// seed regardless of host parallelism. runs[i] is job i's program, set when
// the driver submits it (nil if the run's budget ended first).
func (r *Runner) SubmitTenants(tc tenant.Config, scale int64) (sched []tenant.Job, runs []*ProgramRun) {
	k := r.cl.K
	nodes := r.cl.Config().ComputeNodes
	sched = tenant.Schedule(tc)
	runs = make([]*ProgramRun, len(sched))
	addJob := func(p *sim.Proc, i int, onDone func()) {
		j := sched[i]
		runs[i] = r.Add(TenantJob(j, tc.Ranks, scale), TenantMode(j.Mode), AddOptions{
			RanksPerNode:   tc.Ranks, // each job owns one compute node
			FirstNodeIndex: i % nodes,
			StartAt:        p.Now(),
			Tenant:         j.Tenant,
			OnDone:         onDone,
		})
	}
	if tc.Arrival.Kind != tenant.ArrivalClosed {
		k.Spawn("tenant/arrivals", func(p *sim.Proc) {
			for i := range sched {
				if at := sched[i].At; at > p.Now() {
					p.Sleep(at - p.Now())
				}
				addJob(p, i, nil)
			}
		})
		return sched, runs
	}
	// Group schedule indices per (tenant, worker) preserving order.
	byWorker := make(map[[2]int][]int)
	for i, j := range sched {
		key := [2]int{j.Tenant, j.Worker}
		byWorker[key] = append(byWorker[key], i)
	}
	for t := 0; t < tc.Tenants; t++ {
		for w := 0; w < tc.Arrival.Workers; w++ {
			idxs := byWorker[[2]int{t, w}]
			k.Spawn(fmt.Sprintf("tenant%d/worker%d", t, w), func(p *sim.Proc) {
				for _, i := range idxs {
					sig := &sim.Signal{}
					done := false
					addJob(p, i, func() { done = true; sig.Broadcast() })
					for !done {
						sig.Wait(p)
					}
					if tc.Arrival.Think > 0 {
						p.Sleep(tc.Arrival.Think)
					}
				}
			})
		}
	}
	return sched, runs
}
