package core

import (
	"testing"
	"time"

	"dualpar/internal/check"
	"dualpar/internal/cluster"
	"dualpar/internal/sim"
	"dualpar/internal/tenant"
	"dualpar/internal/workloads"
)

// tenantCluster is smallCluster with a tenancy config attached.
func tenantCluster(seed int64, tc tenant.Config) *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.DataServers = 3
	cfg.Seed = seed
	d := cfg.Disk
	d.Sectors = 1 << 25
	cfg.Disk = d
	cfg.Tenancy = &tc
	return cluster.New(cfg)
}

func tinyDemo(name string) workloads.Demo {
	d := workloads.DefaultDemo()
	d.Procs = 1
	d.FileBytes = 256 << 10
	d.SegsPerCall = 4
	d.FileName = name
	return d
}

// TestGrantBoundHoldsAcrossJobs pins the arbiter wiring end to end: with
// MaxGrants=1, two pinned data-driven jobs cannot both hold a grant; the
// denied one runs conventionally until the first finishes and the EMC's
// slot retry picks the grant up, and every grant is back at exit.
func TestGrantBoundHoldsAcrossJobs(t *testing.T) {
	tc := tenant.DefaultConfig()
	tc.Tenants = 2
	tc.MaxGrants = 1
	cl := tenantCluster(1, tc)
	aud := check.New(1, "tenancy")
	aud.SetArtifactDir(t.TempDir())
	cl.EnableAudit(aud)
	ccfg := DefaultConfig()
	ccfg.Audit = true
	ccfg.SlotEvery = 2 * time.Millisecond // several retry slots per job
	r := NewRunner(cl, ccfg)
	long := tinyDemo("a.dat")
	long.FileBytes = 2 << 20
	a := r.Add(long, ModeDataDriven, AddOptions{RanksPerNode: 4, Tenant: 0})
	long.FileName = "b.dat"
	b := r.Add(long, ModeDataDriven, AddOptions{RanksPerNode: 4, Tenant: 1})
	arb := cl.Arbiter()
	if got := arb.Held(); got != 1 {
		t.Fatalf("grants held after Add = %d, want 1 (bound)", got)
	}
	if a.DataDriven() == b.DataDriven() {
		t.Fatalf("both programs agree on data-driven=%v under a 1-grant bound", a.DataDriven())
	}
	if !r.Run(time.Hour) {
		t.Fatal("run did not finish")
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if got := arb.Held(); got != 0 {
		t.Fatalf("grants held at exit = %d, want 0", got)
	}
	if arb.Denies(0)+arb.Denies(1) == 0 {
		t.Fatal("no denial recorded despite contention for one grant")
	}
	// The denied program got the grant on an EMC retry once the first
	// finished (both jobs are tiny; the winner releases quickly).
	if arb.Grants(0)+arb.Grants(1) < 2 {
		t.Fatalf("grants issued = %d, want both programs eventually admitted",
			arb.Grants(0)+arb.Grants(1))
	}
}

// TestSingleTenantDefaultsPassThrough pins the seed-compat contract at the
// core level: Tenants=1 with default policy (unbounded grants, no cache
// partition) admits everything immediately and leaks nothing.
func TestSingleTenantDefaultsPassThrough(t *testing.T) {
	cl := tenantCluster(1, tenant.DefaultConfig())
	r := NewRunner(cl, DefaultConfig())
	pr := r.Add(tinyDemo("a.dat"), ModeDataDriven, AddOptions{RanksPerNode: 4})
	if !pr.DataDriven() {
		t.Fatal("default single-tenant arbiter denied a grant")
	}
	if !r.Run(time.Hour) {
		t.Fatal("run did not finish")
	}
	if got := cl.Arbiter().Held(); got != 0 {
		t.Fatalf("grants held at exit = %d", got)
	}
}

// TestMidRunAddAndOnDone pins the dynamic-submission path closed loops
// depend on: a driver proc adds a program while the simulation runs, the
// EMC picks it up (its state arrays grow, the slot chain re-arms), and
// OnDone fires exactly once at completion.
func TestMidRunAddAndOnDone(t *testing.T) {
	cl := tenantCluster(1, tenant.DefaultConfig())
	r := NewRunner(cl, DefaultConfig())
	r.Add(tinyDemo("first.dat"), ModeVanilla, AddOptions{RanksPerNode: 4})
	doneAt := make(map[string]time.Duration)
	cl.K.SpawnAt(5*time.Millisecond, "driver", func(p *sim.Proc) {
		sig := cl.K.NewSignal()
		r.Add(tinyDemo("late.dat"), ModeDataDriven, AddOptions{
			RanksPerNode: 4,
			StartAt:      p.Now(),
			OnDone: func() {
				doneAt["late"] = cl.K.Now()
				sig.Broadcast()
			},
		})
		sig.Wait(p)
		// A second generation proves the chain re-arms after quiescence.
		r.Add(tinyDemo("later.dat"), ModeVanilla, AddOptions{
			RanksPerNode: 4,
			StartAt:      p.Now(),
			OnDone:       func() { doneAt["later"] = cl.K.Now() },
		})
	})
	if !r.Run(time.Hour) {
		t.Fatal("run did not finish")
	}
	if len(r.Programs()) != 3 {
		t.Fatalf("programs = %d, want 3", len(r.Programs()))
	}
	if doneAt["late"] == 0 || doneAt["later"] == 0 {
		t.Fatalf("OnDone callbacks missing: %v", doneAt)
	}
	if doneAt["later"] <= doneAt["late"] {
		t.Fatalf("completion order wrong: %v", doneAt)
	}
	for _, pr := range r.Programs() {
		if !pr.Done {
			t.Fatalf("program %s not done", pr.Prog().Name())
		}
	}
}

// TestSubmitTenantsRunsEveryJob drives both arrival shapes through the
// shared driver: every scheduled job is submitted with the template's size,
// tenant and mode, and finishes within budget. The closed loop must keep
// each worker to one job in flight.
func TestSubmitTenantsRunsEveryJob(t *testing.T) {
	for _, spec := range []string{
		"tenants:2,arrival=poisson:50,policy=fair,grants=2,jobs=4,ranks=2",
		"tenants:2,arrival=closed:2x3:5ms,policy=prio,grants=2,ranks=2",
	} {
		t.Run(spec, func(t *testing.T) {
			tc, err := tenant.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			r := NewRunner(tenantCluster(1, tc), DefaultConfig())
			sched, runs := r.SubmitTenants(tc, 2)
			if len(sched) == 0 || len(runs) != len(sched) {
				t.Fatalf("%d jobs scheduled, %d run slots", len(sched), len(runs))
			}
			if !r.Run(time.Hour) {
				t.Fatal("tenant jobs did not finish")
			}
			for i, pr := range runs {
				j := sched[i]
				want := TenantJob(j, tc.Ranks, 2)
				if pr == nil || !pr.Done {
					t.Fatalf("job %d not run to completion", i)
				}
				if got := pr.Instr().TotalBytes(); got != want.FileBytes {
					t.Errorf("job %d moved %d bytes, want %d", i, got, want.FileBytes)
				}
				if pr.Tenant() != j.Tenant || pr.Mode() != TenantMode(j.Mode) {
					t.Errorf("job %d: tenant %d mode %v, want %d %v", i, pr.Tenant(), pr.Mode(), j.Tenant, TenantMode(j.Mode))
				}
			}
			if tc.Arrival.Kind != tenant.ArrivalClosed {
				return
			}
			// A closed-loop worker submits its next job only after the
			// previous one ended.
			last := map[[2]int]time.Duration{}
			for i, j := range sched {
				k := [2]int{j.Tenant, j.Worker}
				if runs[i].StartedAt < last[k] {
					t.Errorf("job %d started at %v before its worker's previous job ended at %v", i, runs[i].StartedAt, last[k])
				}
				last[k] = runs[i].EndedAt
			}
		})
	}
}
