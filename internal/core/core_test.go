package core

import (
	"testing"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/workloads"
)

// smallCluster builds a scaled-down testbed: 3 data servers.
func smallCluster(seed int64) *cluster.Cluster {
	return cluster.New(smallConfig(seed))
}

func smallConfig(seed int64) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.DataServers = 3
	cfg.Seed = seed
	cfg.DiskSectors = 1 << 25 // 16 GB per member
	return cfg
}

// smallMPIIOTest is a quick sequential workload.
func smallMPIIOTest(write bool) workloads.MPIIOTest {
	m := workloads.DefaultMPIIOTest()
	m.Procs = 8
	m.FileBytes = 8 << 20
	m.Write = write
	return m
}

func runOne(t *testing.T, prog workloads.Program, mode Mode) *ProgramRun {
	t.Helper()
	cl := smallCluster(1)
	r := NewRunner(cl, DefaultConfig())
	pr := r.Add(prog, mode, AddOptions{RanksPerNode: 4})
	if !r.Run(time.Hour) {
		t.Fatalf("%s/%v did not finish", prog.Name(), mode)
	}
	return pr
}

func TestVanillaRunCompletes(t *testing.T) {
	pr := runOne(t, smallMPIIOTest(false), ModeVanilla)
	if pr.Elapsed() <= 0 {
		t.Fatalf("elapsed = %v", pr.Elapsed())
	}
	if got := pr.Instr().TotalBytes(); got != 8<<20 {
		t.Fatalf("instr bytes = %d, want 8MB", got)
	}
}

func TestVanillaReadsComeFromServers(t *testing.T) {
	cl := smallCluster(1)
	r := NewRunner(cl, DefaultConfig())
	r.Add(smallMPIIOTest(false), ModeVanilla, AddOptions{RanksPerNode: 4})
	if !r.Run(time.Hour) {
		t.Fatalf("did not finish")
	}
	var served int64
	for _, st := range cl.Stores {
		served += st.BytesRead()
	}
	if served != 8<<20 {
		t.Fatalf("servers served %d, want 8MB", served)
	}
}

func TestCollectiveRunCompletes(t *testing.T) {
	n := workloads.DefaultNoncontig()
	n.Procs = 8
	n.FileBytes = 8 << 20
	n.ElmtCount = 512
	pr := runOne(t, n, ModeCollective)
	if pr.Elapsed() <= 0 {
		t.Fatalf("collective run did not complete")
	}
}

func TestDataDrivenReadCompletesAndBatches(t *testing.T) {
	cl := smallCluster(1)
	r := NewRunner(cl, DefaultConfig())
	pr := r.Add(smallMPIIOTest(false), ModeDataDriven, AddOptions{RanksPerNode: 4})
	if !r.Run(time.Hour) {
		t.Fatalf("data-driven run did not finish")
	}
	if pr.ctrl.Cycles() == 0 {
		t.Fatalf("no data-driven cycles ran")
	}
	if pr.cache.Hits() == 0 {
		t.Fatalf("no cache hits: prefetching is not serving reads")
	}
	// Every byte the program consumed must have been prefetched or read.
	var served int64
	for _, st := range cl.Stores {
		served += st.BytesRead()
	}
	if served < 8<<20 {
		t.Fatalf("servers served %d, want >= 8MB", served)
	}
}

func TestDataDrivenBeatsVanillaOnInterleavedSmallReads(t *testing.T) {
	// The headline claim at small scale: interleaved small synchronous
	// reads (demo, 4KB segments, pure I/O) run faster data-driven.
	prog := workloads.DefaultDemo()
	prog.Procs = 8
	prog.FileBytes = 16 << 20
	van := runOne(t, prog, ModeVanilla).Elapsed()
	dd := runOne(t, prog, ModeDataDriven).Elapsed()
	if dd >= van {
		t.Fatalf("data-driven %v not faster than vanilla %v", dd, van)
	}
}

func TestDataDrivenImprovesDiskSequentiality(t *testing.T) {
	// Total head travel for the same transferred volume must drop under
	// data-driven execution (the per-access average is dominated by the
	// one-time seek into the file region, so compare totals).
	seeks := func(mode Mode) int64 {
		cl := smallCluster(1)
		r := NewRunner(cl, DefaultConfig())
		prog := workloads.DefaultDemo()
		prog.Procs = 8
		prog.FileBytes = 32 << 20 // large enough that steady-state travel dominates the initial seek
		r.Add(prog, mode, AddOptions{RanksPerNode: 4})
		if !r.Run(time.Hour) {
			t.Fatalf("run did not finish")
		}
		return cl.ServerStats().SeekSectors
	}
	van := seeks(ModeVanilla)
	dd := seeks(ModeDataDriven)
	if dd*2 >= van {
		t.Fatalf("total seek sectors: data-driven %d not well below vanilla %d", dd, van)
	}
}

func TestDataDrivenWriteDrainsDirty(t *testing.T) {
	cl := smallCluster(1)
	r := NewRunner(cl, DefaultConfig())
	pr := r.Add(smallMPIIOTest(true), ModeDataDriven, AddOptions{RanksPerNode: 4})
	if !r.Run(time.Hour) {
		t.Fatalf("write run did not finish")
	}
	if pr.cache.DirtyBytes() != 0 {
		t.Fatalf("dirty bytes left: %d", pr.cache.DirtyBytes())
	}
	var written int64
	for _, st := range cl.Stores {
		written += st.BytesWritten()
	}
	if written < 8<<20 {
		t.Fatalf("servers wrote %d, want >= 8MB", written)
	}
}

func TestStrategy2HidesIOUnderComputation(t *testing.T) {
	// Low I/O intensity: strategy 2 should approach pure-compute time,
	// clearly beating vanilla.
	prog := workloads.DefaultDemo()
	prog.Procs = 8
	prog.FileBytes = 32 << 20 // enough calls to amortize the cold warmup
	prog.ComputePerCall = 40 * time.Millisecond
	van := runOne(t, prog, ModeVanilla).Elapsed()
	s2 := runOne(t, prog, ModeStrategy2).Elapsed()
	if s2 >= van {
		t.Fatalf("strategy2 %v not faster than vanilla %v at low I/O ratio", s2, van)
	}
	compute := time.Duration(prog.Calls()) * prog.ComputePerCall
	if s2 > compute*3/2 {
		t.Fatalf("strategy2 %v far above compute floor %v: I/O not hidden", s2, compute)
	}
}

func TestDataDrivenRetainsComputeSlowsLowIORatio(t *testing.T) {
	// Fig 1(a) left side: at low I/O ratios, strategy 3's redundant
	// computation makes it slower than strategy 2.
	prog := workloads.DefaultDemo()
	prog.Procs = 8
	prog.FileBytes = 8 << 20
	prog.ComputePerCall = 40 * time.Millisecond
	s2 := runOne(t, prog, ModeStrategy2).Elapsed()
	dd := runOne(t, prog, ModeDataDriven).Elapsed()
	if dd <= s2 {
		t.Fatalf("data-driven %v should lose to strategy2 %v at low I/O ratio", dd, s2)
	}
}

func TestMisPrefetchDetectedOnDependentReads(t *testing.T) {
	prog := workloads.DefaultDependentReader()
	prog.Procs = 4
	// Large file: coincidental coverage of the dependent chain by garbage
	// prefetches must be negligible, as in the paper's 2 GB setup.
	prog.FileBytes = 2 << 30
	prog.CallsPerRank = 16
	pr := runOne(t, prog, ModeDataDriven)
	if len(pr.MisSamples()) == 0 {
		t.Fatalf("no mis-prefetch samples recorded")
	}
	var sum float64
	for _, s := range pr.MisSamples() {
		sum += s
	}
	if avg := sum / float64(len(pr.MisSamples())); avg < 0.5 {
		t.Fatalf("mis-prefetch avg = %g, want high for fully dependent reads", avg)
	}
}

func TestEMCDisablesOnMisPrefetch(t *testing.T) {
	// Table III scenario: data-driven mode starts on (forced), everything
	// prefetched is wrong, and EMC turns the mode off for good — a
	// one-time overhead.
	prog := workloads.DefaultDependentReader()
	prog.Procs = 4
	prog.FileBytes = 2 << 30
	prog.CallsPerRank = 64
	cl := smallCluster(1)
	cfg := DefaultConfig()
	cfg.SlotEvery = 100 * time.Millisecond
	r := NewRunner(cl, cfg)
	pr := r.Add(prog, ModeDataDriven, AddOptions{RanksPerNode: 4})
	if !r.Run(time.Hour) {
		t.Fatalf("run did not finish")
	}
	if pr.dataDriven {
		t.Fatalf("data-driven still on at exit despite full mis-prefetch")
	}
	if !pr.disabled {
		t.Fatalf("EMC did not disable the mode")
	}
	// After the disable the program must stop cycling.
	if off := pr.ModeSwitches[len(pr.ModeSwitches)-1]; off.On {
		t.Fatalf("last mode switch was ON: %+v", pr.ModeSwitches)
	}
}

func TestEMCEnablesUnderInterference(t *testing.T) {
	// Two interfering sequential programs: EMC should detect interference
	// (long inter-file seeks vs tiny request distance) and enable
	// data-driven mode for at least one program.
	cl := smallCluster(1)
	cfg := DefaultConfig()
	cfg.SlotEvery = 250 * time.Millisecond
	r := NewRunner(cl, cfg)
	m1 := smallMPIIOTest(false)
	m1.FileName = "a.dat"
	m1.BarrierEvery = 0 // keep the scaled-down runs I/O-bound
	m2 := smallMPIIOTest(false)
	m2.FileName = "b.dat"
	m2.BarrierEvery = 0
	p1 := r.Add(m1, ModeDualPar, AddOptions{RanksPerNode: 4})
	p2 := r.Add(m2, ModeDualPar, AddOptions{RanksPerNode: 4, FirstNodeIndex: 2})
	if !r.Run(time.Hour) {
		t.Fatalf("runs did not finish")
	}
	switched := len(p1.ModeSwitches) > 0 || len(p2.ModeSwitches) > 0
	if !switched {
		t.Fatalf("EMC never enabled data-driven mode under interference; decisions: %+v", tail(r.EMCDecisions(), 6))
	}
}

func tail(d []Decision, n int) []Decision {
	if len(d) <= n {
		return d
	}
	return d[len(d)-n:]
}

func TestTwoProgramsConcurrentDataDrivenFasterThanVanilla(t *testing.T) {
	run := func(mode Mode) time.Duration {
		cl := smallCluster(1)
		r := NewRunner(cl, DefaultConfig())
		m1 := smallMPIIOTest(false)
		m1.FileName = "a.dat"
		m2 := smallMPIIOTest(false)
		m2.FileName = "b.dat"
		p1 := r.Add(m1, mode, AddOptions{RanksPerNode: 4})
		p2 := r.Add(m2, mode, AddOptions{RanksPerNode: 4, FirstNodeIndex: 2})
		if !r.Run(time.Hour) {
			t.Fatalf("concurrent run (%v) did not finish", mode)
		}
		e1, e2 := p1.Elapsed(), p2.Elapsed()
		if e2 > e1 {
			return e2
		}
		return e1
	}
	van := run(ModeVanilla)
	dd := run(ModeDataDriven)
	if dd >= van {
		t.Fatalf("concurrent data-driven %v not faster than vanilla %v", dd, van)
	}
}

func TestDeterministicRuns(t *testing.T) {
	elapsed := func() time.Duration {
		cl := smallCluster(7)
		r := NewRunner(cl, DefaultConfig())
		pr := r.Add(smallMPIIOTest(false), ModeDataDriven, AddOptions{RanksPerNode: 4})
		if !r.Run(time.Hour) {
			t.Fatalf("run did not finish")
		}
		return pr.Elapsed()
	}
	a, b := elapsed(), elapsed()
	if a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestS3asimDataDrivenCompletes(t *testing.T) {
	s := workloads.DefaultS3asim()
	s.Procs = 8
	s.Queries = 8
	s.FragmentBytes = 1 << 20
	pr := runOne(t, s, ModeDataDriven)
	if pr.Elapsed() <= 0 {
		t.Fatalf("s3asim did not complete")
	}
	if pr.cache.DirtyBytes() != 0 {
		t.Fatalf("dirty result data left unwritten")
	}
}

func TestBTIODataDrivenCompletes(t *testing.T) {
	b := workloads.DefaultBTIO()
	b.Procs = 16
	b.TotalBytes = 2 << 20
	b.Steps = 2
	pr := runOne(t, b, ModeDataDriven)
	if pr.Elapsed() <= 0 {
		t.Fatalf("btio did not complete")
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeVanilla: "vanilla", ModeCollective: "collective",
		ModeStrategy2: "strategy2", ModeDualPar: "dualpar", ModeDataDriven: "data-driven",
	} {
		if m.String() != want {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.CacheQuotaBytes = -1 },
		func(c *Config) { c.TImprovement = 0 },
		func(c *Config) { c.MisPrefetchThreshold = 2 },
		func(c *Config) { c.HoleBytes = -1 },
		func(c *Config) { c.SlotEvery = 0 },
		func(c *Config) { c.Strategy2WindowBytes = 0 },
		func(c *Config) { c.ChunkBytes = 0 },
	}
	for i, m := range bad {
		c := DefaultConfig()
		m(&c)
		if c.Validate() == nil {
			t.Fatalf("case %d passed", i)
		}
	}
	if DefaultConfig().Validate() != nil {
		t.Fatalf("default config invalid")
	}
}

func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []Mode{ModeVanilla, ModeCollective, ModeStrategy2, ModeDualPar, ModeDataDriven} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatalf("bogus mode parsed")
	}
}

func TestCheckpointDataDrivenBeatsVanilla(t *testing.T) {
	c := workloads.DefaultCheckpoint()
	c.Procs = 16
	c.Checkpoints = 8
	c.Compute = 10 * time.Millisecond
	van := runOne(t, c, ModeVanilla).Elapsed()
	dd := runOne(t, c, ModeDataDriven).Elapsed()
	if dd >= van {
		t.Fatalf("data-driven %v not faster than vanilla %v on N-1 checkpointing", dd, van)
	}
}
