package cluster

import (
	"testing"
	"time"

	"dualpar/internal/burst"
	"dualpar/internal/ext"
	"dualpar/internal/fault"
	"dualpar/internal/iosched"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

func TestDefaultShapeMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.DataServers != 9 {
		t.Fatalf("data servers = %d, want 9", cfg.DataServers)
	}
}

func TestClusterAssembles(t *testing.T) {
	cl := New(DefaultConfig())
	if len(cl.Stores) != 9 {
		t.Fatalf("stores = %d", len(cl.Stores))
	}
	if cl.FS.NumServers() != 9 {
		t.Fatalf("pfs servers = %d", cl.FS.NumServers())
	}
	if len(cl.ComputeNodes()) != 8 || cl.ComputeNodes()[0] != ComputeNodeBase {
		t.Fatalf("compute nodes = %v", cl.ComputeNodes())
	}
	if cl.MetaNode() != 0 {
		t.Fatalf("meta node = %d", cl.MetaNode())
	}
	// Each data server is the paper's two-drive RAID0.
	if got, want := cl.Stores[0].Device().Sectors(), 2*DefaultConfig().DiskSectors; got != want {
		t.Fatalf("server device = %d sectors, want %d (two drives)", got, want)
	}
}

func TestEndToEndReadThroughCluster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataServers = 3
	cl := New(cfg)
	client := cl.FS.Client(ComputeNodeBase)
	var took time.Duration
	cl.K.Spawn("client", func(p *sim.Proc) {
		client.Create(p, "f", 8<<20)
		t0 := p.Now()
		client.Read(p, "f", []ext.Extent{{Off: 0, Len: 8 << 20}}, 1, obs.Ctx{})
		took = p.Now() - t0
	})
	cl.K.RunUntil(time.Minute)
	if took <= 0 {
		t.Fatalf("read did not complete")
	}
	// 8MB at GigE client downlink ~117MB/s floor is ~68ms; disk adds more.
	if took > 2*time.Second {
		t.Fatalf("8MB read took %v, implausibly slow", took)
	}
	st := cl.ServerStats()
	if st.BytesRead < 8<<20 {
		t.Fatalf("server stats read bytes = %d", st.BytesRead)
	}
}

func TestSchedulerFactoryRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataServers = 2
	calls := 0
	cfg.NewScheduler = func() iosched.Algorithm {
		calls++
		return iosched.NewNOOP()
	}
	cl := New(cfg)
	if calls != 2 {
		t.Fatalf("scheduler factory called %d times, want 2", calls)
	}
	if cl.Stores[0].Dispatcher().Algorithm().Name() != "noop" {
		t.Fatalf("scheduler = %s", cl.Stores[0].Dispatcher().Algorithm().Name())
	}
}

func TestTraceServersEnablesTraces(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataServers = 2
	cfg.TraceServers = true
	cl := New(cfg)
	for i, st := range cl.Stores {
		if st.Dispatcher().Trace() == nil {
			t.Fatalf("server %d has no trace", i)
		}
	}
}

// A collector enabled after construction (the harness's -report path) must
// reach the fault injector and the burst tier, not only the layers that
// take one through SetObs at New.
func TestEnableObsReachesFaultsAndBurst(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DataServers = 2
	sch, err := fault.Parse("crash:client0@5ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = sch
	bc := burst.DefaultConfig()
	cfg.Burst = &bc
	cl := New(cfg)
	col := obs.NewCollector()
	cl.EnableObs(col)
	client := cl.FS.Client(ComputeNodeBase)
	cl.K.Spawn("writer", func(p *sim.Proc) {
		client.Create(p, "f", 1<<20)
		l := cl.Burst().Log(ComputeNodeBase)
		l.Append(p, 0, 1, "f", []ext.Extent{{Off: 0, Len: 64 << 10}})
		l.Seal(p, 0, 1)
	})
	cl.K.RunUntil(time.Second)
	seen := map[string]bool{}
	for _, in := range col.Instants() {
		seen[in.Name] = true
	}
	for _, name := range []string{"fault.begin", "burst.seal"} {
		if !seen[name] {
			t.Errorf("no %s instant after EnableObs (saw %v)", name, seen)
		}
	}
}
