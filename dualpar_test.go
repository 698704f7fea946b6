package dualpar_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dualpar"
	"dualpar/internal/pfs"
	simk "dualpar/internal/sim"
)

func TestFacadeQuickRun(t *testing.T) {
	sim := dualpar.NewSimulation(dualpar.Defaults())
	prog := sim.AddProgram(dualpar.MPIIOTest(16, 8<<20, false), dualpar.Vanilla, dualpar.ProgramOptions{})
	if !sim.Run(time.Hour) {
		t.Fatalf("simulation did not finish")
	}
	if prog.Elapsed() <= 0 {
		t.Fatalf("elapsed = %v", prog.Elapsed())
	}
	if prog.Bytes() != 8<<20 {
		t.Fatalf("bytes = %d", prog.Bytes())
	}
	if prog.Throughput() <= 0 {
		t.Fatalf("throughput = %g", prog.Throughput())
	}
	if r := prog.IORatio(); r <= 0 || r > 1 {
		t.Fatalf("io ratio = %g", r)
	}
}

func TestFacadeDualParBeatsVanilla(t *testing.T) {
	run := func(mode dualpar.Mode) float64 {
		sim := dualpar.NewSimulation(dualpar.Defaults())
		prog := sim.AddProgram(dualpar.Demo(8, 16<<20, 4<<10, 0), mode, dualpar.ProgramOptions{})
		if !sim.Run(time.Hour) {
			t.Fatalf("did not finish")
		}
		return prog.Throughput()
	}
	van := run(dualpar.Vanilla)
	dd := run(dualpar.DualParForced)
	if dd <= van {
		t.Fatalf("dualpar %.1f not above vanilla %.1f", dd, van)
	}
}

func TestFacadeConfigKnobs(t *testing.T) {
	cfg := dualpar.Defaults().WithSeed(7).WithScheduler("deadline").WithTracing()
	sim := dualpar.NewSimulation(cfg)
	prog := sim.AddProgram(dualpar.IOR(8, 4<<20, false), dualpar.Vanilla, dualpar.ProgramOptions{RanksPerNode: 4})
	if !sim.Run(time.Hour) {
		t.Fatalf("did not finish")
	}
	if prog.Elapsed() <= 0 {
		t.Fatalf("no progress")
	}
	if sim.Cluster().Stores[0].Dispatcher().Trace() == nil {
		t.Fatalf("tracing not enabled")
	}
	if got := sim.Cluster().Stores[0].Dispatcher().Algorithm().Name(); got != "deadline" {
		t.Fatalf("scheduler = %q", got)
	}
}

func TestFacadeSSDAndAnticipatory(t *testing.T) {
	cfg := dualpar.Defaults().WithSSD().WithScheduler("anticipatory")
	sim := dualpar.NewSimulation(cfg)
	prog := sim.AddProgram(dualpar.Noncontig(16, 4<<20, false), dualpar.Collective, dualpar.ProgramOptions{})
	if !sim.Run(time.Hour) {
		t.Fatalf("did not finish")
	}
	if prog.Throughput() <= 0 {
		t.Fatalf("no throughput")
	}
}

func TestFacadeWorkloadConstructors(t *testing.T) {
	if w := dualpar.BTIO(16, 2<<20, 2); w.Ranks() != 16 {
		t.Fatalf("btio ranks = %d", w.Ranks())
	}
	if w := dualpar.HPIO(8, 128, 32<<10, 1<<10); w.TotalBytes() != 128*32<<10 {
		t.Fatalf("hpio bytes = %d", w.TotalBytes())
	}
	if w := dualpar.S3asim(8, 16); w.Queries != 16 {
		t.Fatalf("s3asim queries = %d", w.Queries)
	}
}

func TestFacadeModeSwitchLogExposed(t *testing.T) {
	sim := dualpar.NewSimulation(dualpar.Defaults())
	prog := sim.AddProgram(dualpar.MPIIOTest(16, 4<<20, false), dualpar.DualParForced, dualpar.ProgramOptions{})
	if !sim.Run(time.Hour) {
		t.Fatalf("did not finish")
	}
	if !prog.DataDriven() && len(prog.ModeSwitches()) == 0 {
		// Forced mode stays on unless the mis-prefetch guard fires; either
		// way the API surfaces must be callable.
		t.Fatalf("forced data-driven off without a logged switch")
	}
	if prog.Run() == nil {
		t.Fatalf("internal escape hatch missing")
	}
}

// An audited run whose oracle fails must say so through the facade: here a
// device access that bypasses the block layer breaks server 0's
// dispatched-bytes conservation.
func TestFacadeErrSurfacesAuditViolation(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir()) // the reproducer artifact lands here
	cfg := dualpar.Defaults()
	cfg.Core.Audit = true
	sim := dualpar.NewSimulation(cfg)
	sim.AddProgram(dualpar.MPIIOTest(8, 1<<20, false), dualpar.Vanilla, dualpar.ProgramOptions{})
	dev := sim.Cluster().Stores[0].Device()
	sim.Cluster().K.Spawn("bypass", func(p *simk.Proc) { dev.Access(p, 0, 8, false) })
	if !sim.Run(time.Hour) {
		t.Fatalf("did not finish")
	}
	if err := sim.Err(); err == nil || !strings.Contains(err.Error(), "conserve.disk.server0") {
		t.Fatalf("Err() = %v, want the conserve.disk.server0 violation", err)
	}
}

// A program's I/O error must surface too: an unreplicated server crash
// loses the data, and the run still finishes.
func TestFacadeErrSurfacesProgramError(t *testing.T) {
	sim := dualpar.NewSimulation(dualpar.Defaults().WithFaults("crash:1@20ms"))
	sim.AddProgram(dualpar.MPIIOTest(8, 4<<20, true), dualpar.Vanilla, dualpar.ProgramOptions{})
	if !sim.Run(time.Hour) {
		t.Fatalf("did not finish")
	}
	if err := sim.Err(); !errors.Is(err, pfs.ErrRetriesExhausted) {
		t.Fatalf("Err() = %v, want a wrap of pfs.ErrRetriesExhausted", err)
	}
	healthy := dualpar.NewSimulation(dualpar.Defaults())
	healthy.AddProgram(dualpar.MPIIOTest(8, 1<<20, false), dualpar.Vanilla, dualpar.ProgramOptions{})
	healthy.Run(time.Hour)
	if err := healthy.Err(); err != nil {
		t.Fatalf("healthy run Err() = %v", err)
	}
}

// TestFacadeAnchorKernelStats pins the kernel's exact self-counters on the
// anchor run (mpi-io-test, 64 procs, 64 MiB read, vanilla at Defaults, the
// run that prints "elapsed: 0.539 s"). Every count is deterministic per
// seed, so a change that adds or removes kernel work moves one of them.
func TestFacadeAnchorKernelStats(t *testing.T) {
	sim := dualpar.NewSimulation(dualpar.Defaults())
	sim.AddProgram(dualpar.MPIIOTest(64, 64<<20, false), dualpar.Vanilla, dualpar.ProgramOptions{})
	if !sim.Run(24 * time.Hour) {
		t.Fatalf("did not finish")
	}
	want := simk.Stats{Events: 43326, Callbacks: 10, Handoffs: 43008, SelfResumes: 308}
	if got := sim.Cluster().K.Stats(); got != want {
		t.Fatalf("kernel stats %+v, want %+v", got, want)
	}
}

func TestFacadeParseMode(t *testing.T) {
	m, err := dualpar.ParseMode("collective")
	if err != nil || m != dualpar.Collective {
		t.Fatalf("ParseMode = %v, %v", m, err)
	}
}

// ExampleSimulation runs mpi-io-test under DualPar's forced data-driven
// mode and reports whether it outperformed the vanilla run.
func ExampleSimulation() {
	run := func(mode dualpar.Mode) float64 {
		sim := dualpar.NewSimulation(dualpar.Defaults())
		prog := sim.AddProgram(dualpar.MPIIOTest(16, 8<<20, false), mode, dualpar.ProgramOptions{})
		sim.Run(time.Hour)
		return prog.Throughput()
	}
	vanilla := run(dualpar.Vanilla)
	dual := run(dualpar.DualParForced)
	fmt.Println("dualpar faster:", dual > vanilla)
	// Output: dualpar faster: true
}
