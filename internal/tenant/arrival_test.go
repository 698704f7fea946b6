package tenant

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// TestScheduleReproducible pins the generator's core contract: the same
// config yields the identical schedule, and a different seed yields a
// different one.
func TestScheduleReproducible(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tenants = 3
	cfg.Jobs = 50
	a, b := Schedule(cfg), Schedule(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two schedules from the same config differ")
	}
	cfg.Seed++
	if reflect.DeepEqual(a, Schedule(cfg)) {
		t.Fatal("different seeds produced the identical schedule")
	}
}

// TestPoissonMeanConverges is the statistical property: with a fixed seed,
// per-tenant inter-arrival means converge to 1/rate. Gated behind -short
// because it draws a large sample.
func TestPoissonMeanConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test skipped in -short mode")
	}
	cfg := DefaultConfig()
	cfg.Tenants = 4
	cfg.Jobs = 4000
	cfg.Arrival = Arrival{Kind: ArrivalPoisson, Rate: 200}
	jobs := Schedule(cfg)
	last := make(map[int]time.Duration)
	sum := make(map[int]time.Duration)
	n := make(map[int]int)
	for _, j := range jobs {
		sum[j.Tenant] += j.At - last[j.Tenant]
		last[j.Tenant] = j.At
		n[j.Tenant]++
	}
	want := 1.0 / cfg.Arrival.Rate
	for tn := 0; tn < cfg.Tenants; tn++ {
		mean := sum[tn].Seconds() / float64(n[tn])
		// Standard error is (1/rate)/sqrt(n) ~ 0.008/rate; 5% is >6 sigma,
		// so this cannot flake and still catches rate-off-by-2x bugs.
		if math.Abs(mean-want)/want > 0.05 {
			t.Errorf("tenant %d mean inter-arrival %.6fs, want %.6fs +-5%%", tn, mean, want)
		}
	}
}

// TestScheduleOrdering pins the merge order: non-decreasing At with
// (tenant, index) tiebreaks, and per-tenant indices strictly increasing.
func TestScheduleOrdering(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tenants = 3
	cfg.Jobs = 30
	jobs := Schedule(cfg)
	nextIdx := make(map[int]int)
	for i, j := range jobs {
		if i > 0 {
			p := jobs[i-1]
			if j.At < p.At || (j.At == p.At && (j.Tenant < p.Tenant ||
				(j.Tenant == p.Tenant && j.Index < p.Index))) {
				t.Fatalf("order violated at %d: %+v after %+v", i, j, p)
			}
		}
		if j.Index != nextIdx[j.Tenant] {
			t.Fatalf("tenant %d index %d, want %d", j.Tenant, j.Index, nextIdx[j.Tenant])
		}
		nextIdx[j.Tenant]++
	}
}

func TestBurstArrival(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jobs = 25
	cfg.Arrival = Arrival{Kind: ArrivalBurst, Size: 10, Every: time.Second}
	jobs := Schedule(cfg)
	if len(jobs) != 25 {
		t.Fatalf("got %d jobs, want 25", len(jobs))
	}
	for i, j := range jobs {
		want := time.Second * time.Duration(i/10)
		if j.At != want {
			t.Fatalf("job %d at %v, want %v", i, j.At, want)
		}
	}
}

func TestHotTenantSkew(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tenants = 2
	cfg.Jobs = 10
	cfg.HotTenant, cfg.HotFactor = 0, 3
	counts := make(map[int]int)
	for _, j := range Schedule(cfg) {
		counts[j.Tenant]++
	}
	if counts[0] != 30 || counts[1] != 10 {
		t.Fatalf("job counts %v, want tenant 0: 30, tenant 1: 10", counts)
	}
}

func TestClosedLoopWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Arrival = Arrival{Kind: ArrivalClosed, Workers: 4, JobsPerWorker: 3, Think: time.Millisecond}
	jobs := Schedule(cfg)
	if len(jobs) != 12 {
		t.Fatalf("got %d jobs, want 12", len(jobs))
	}
	perWorker := make(map[int]int)
	for _, j := range jobs {
		if j.Worker < 0 || j.Worker >= 4 {
			t.Fatalf("job worker %d out of range", j.Worker)
		}
		if j.At != 0 {
			t.Fatalf("closed-loop job carries arrival time %v", j.At)
		}
		perWorker[j.Worker]++
	}
	for w, n := range perWorker {
		if n != 3 {
			t.Fatalf("worker %d has %d jobs, want 3", w, n)
		}
	}
}

// TestMixDraws pins that the class/mode mixes roughly match the configured
// proportions on a large fixed-seed sample (deterministic, no flake).
func TestMixDraws(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jobs = 2000
	var small, dualpar int
	jobs := Schedule(cfg)
	for _, j := range jobs {
		if j.Class == "s" {
			small++
		}
		if j.Mode == "dualpar" {
			dualpar++
		}
	}
	if f := float64(small) / float64(len(jobs)); math.Abs(f-classSmallP) > 0.05 {
		t.Errorf("small-class fraction %.3f, want ~%.2f", f, classSmallP)
	}
	if f := float64(dualpar) / float64(len(jobs)); math.Abs(f-modeDualParP) > 0.05 {
		t.Errorf("dualpar fraction %.3f, want ~%.2f", f, modeDualParP)
	}
}
