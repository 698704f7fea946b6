// Package dualpar is the public entry point to the DualPar reproduction: a
// deterministic simulation of a parallel I/O cluster (PVFS2-style file
// system, MPI-IO, kernel disk schedulers, rotating disks) hosting MPI
// programs that run computation-driven (vanilla or collective I/O),
// prefetching (Strategy 2), or under DualPar's opportunistic data-driven
// execution (Zhang, Davis, Jiang — IPDPS 2012).
//
// A minimal run:
//
//	sim := dualpar.NewSimulation(dualpar.Defaults())
//	prog := sim.AddProgram(dualpar.MPIIOTest(64, 64<<20, false), dualpar.DualParForced, dualpar.ProgramOptions{})
//	sim.Run(time.Hour)
//	fmt.Println(prog.Throughput())
//
// The facade re-exports the pieces most users need; the full surface lives
// in the internal packages (see DESIGN.md for the map).
package dualpar

import (
	"io"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/fault"
	"dualpar/internal/iosched"
	"dualpar/internal/workloads"
)

// Mode selects a program's execution scheme.
type Mode = core.Mode

// Execution modes.
const (
	// Vanilla is computation-driven vanilla MPI-IO (the paper's
	// Strategy 1).
	Vanilla = core.ModeVanilla
	// Collective routes every I/O call through two-phase collective I/O.
	Collective = core.ModeCollective
	// Prefetching is application-level pre-execution prefetching with
	// immediate issue (the paper's Strategy 2).
	Prefetching = core.ModeStrategy2
	// DualPar is the full system: EMC switches the data-driven mode on and
	// off opportunistically.
	DualPar = core.ModeDualPar
	// DualParForced pins the data-driven mode on (the paper's
	// single-application runs).
	DualParForced = core.ModeDataDriven
)

// ParseMode converts a mode name ("vanilla", "collective", "strategy2",
// "dualpar", "data-driven") to a Mode.
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// Config bundles the cluster and DualPar configurations.
type Config struct {
	// Cluster describes the simulated testbed (servers, disks, network,
	// file system). See cluster.DefaultConfig for the paper's platform.
	Cluster cluster.Config
	// Core carries DualPar's tunables (cache quota, thresholds, slots).
	Core core.Config
}

// Defaults returns the paper's platform and prototype parameters: 9 data
// servers with two-disk RAIDs behind CFQ, 64 KB striping, Gigabit Ethernet,
// 1 MB per-process cache quota.
func Defaults() Config {
	return Config{
		Cluster: cluster.DefaultConfig(),
		Core:    core.DefaultConfig(),
	}
}

// WithSeed returns the config with a different simulation seed (runs are
// deterministic per seed).
func (c Config) WithSeed(seed int64) Config {
	c.Cluster.Seed = seed
	return c
}

// WithScheduler returns the config using the named disk scheduler on every
// data server: "cfq" (default), "deadline", "noop", or "anticipatory". An
// unknown name selects CFQ.
func (c Config) WithScheduler(name string) Config {
	c.Cluster.NewScheduler = iosched.Named(name) // nil = the cluster's CFQ default
	return c
}

// WithSSD returns the config with flash storage instead of rotating RAIDs.
func (c Config) WithSSD() Config {
	c.Cluster.SSD = true
	return c
}

// WithTracing returns the config with blktrace-style logging enabled on
// every data server.
func (c Config) WithTracing() Config {
	c.Cluster.TraceServers = true
	return c
}

// WithFaults returns the config with a deterministic fault schedule (see
// fault.Parse for the spec grammar) threaded through the testbed, and the
// client and CRM retry watchdogs armed so degraded runs keep making
// progress. It panics on a malformed spec (a configuration bug).
func (c Config) WithFaults(spec string) Config {
	sch, err := fault.Parse(spec)
	if err != nil {
		panic(err)
	}
	c.Cluster.Faults = sch
	core.ArmWatchdogs(&c.Cluster, &c.Core)
	return c
}

// Simulation hosts programs on one simulated cluster.
type Simulation struct {
	cl     *cluster.Cluster
	runner *core.Runner
}

// NewSimulation builds the cluster and the DualPar runtime.
func NewSimulation(cfg Config) *Simulation {
	cl := cluster.New(cfg.Cluster)
	return &Simulation{cl: cl, runner: core.NewRunner(cl, cfg.Core)}
}

// Cluster exposes the underlying testbed (server stats, traces, network).
func (s *Simulation) Cluster() *cluster.Cluster { return s.cl }

// ProgramOptions tunes one program's placement and start time.
type ProgramOptions struct {
	// RanksPerNode places this many ranks per compute node (default 8).
	RanksPerNode int
	// FirstNodeIndex offsets the program's first compute node.
	FirstNodeIndex int
	// StartAt delays the program's start in virtual time.
	StartAt time.Duration
}

// Program is a running (or finished) program instance.
type Program struct {
	run *core.ProgramRun
}

// AddProgram registers a workload under an execution mode. Call before Run.
func (s *Simulation) AddProgram(w workloads.Program, mode Mode, opts ProgramOptions) *Program {
	return &Program{run: s.runner.Add(w, mode, core.AddOptions{
		RanksPerNode:   opts.RanksPerNode,
		FirstNodeIndex: opts.FirstNodeIndex,
		StartAt:        opts.StartAt,
	})}
}

// Run executes the simulation until every program finishes or maxTime of
// virtual time elapses; it reports whether everything finished.
func (s *Simulation) Run(maxTime time.Duration) bool { return s.runner.Run(maxTime) }

// Err reports why a finished run's results cannot be trusted: the first
// violated invariant when Config.Core.Audit armed the oracles, else the
// first program's I/O error (data lost to a crash, say). Call after Run.
func (s *Simulation) Err() error { return s.runner.Err() }

// Elapsed is the program's measured execution time (zero until finished).
func (p *Program) Elapsed() time.Duration { return p.run.Elapsed() }

// Bytes is the data volume the program moved.
func (p *Program) Bytes() int64 { return p.run.Instr().TotalBytes() }

// Throughput is the program's data volume over its execution time, MB/s.
func (p *Program) Throughput() float64 {
	e := p.run.Elapsed()
	if e <= 0 {
		return 0
	}
	return float64(p.Bytes()) / (1 << 20) / e.Seconds()
}

// IORatio is the mean fraction of rank time spent in I/O, the paper's I/O
// intensity metric.
func (p *Program) IORatio() float64 { return p.run.Instr().IORatio() }

// DataDriven reports whether the program is currently in data-driven mode.
func (p *Program) DataDriven() bool { return p.run.DataDriven() }

// ModeSwitches returns the (time, on/off) log of data-driven transitions.
func (p *Program) ModeSwitches() []core.ModeSwitch { return p.run.ModeSwitches }

// Run gives access to the full internal state for advanced inspection.
func (p *Program) Run() *core.ProgramRun { return p.run }

// Workload constructors for the paper's benchmarks, sized by total bytes.

// Demo is the paper's §II synthetic program (8 procs, 16 segments per call).
func Demo(procs int, fileBytes, segBytes int64, computePerCall time.Duration) workloads.Demo {
	d := workloads.DefaultDemo()
	d.Procs = procs
	d.FileBytes = fileBytes
	d.SegBytes = segBytes
	d.ComputePerCall = computePerCall
	return d
}

// MPIIOTest is PVFS2's sequential benchmark.
func MPIIOTest(procs int, fileBytes int64, write bool) workloads.MPIIOTest {
	m := workloads.DefaultMPIIOTest()
	m.Procs = procs
	m.FileBytes = fileBytes
	m.Write = write
	return m
}

// IOR is ior-mpi-io: per-process scopes, scattered across the servers.
func IOR(procs int, fileBytes int64, write bool) workloads.IOR {
	i := workloads.DefaultIOR()
	i.Procs = procs
	i.FileBytes = fileBytes
	i.Write = write
	return i
}

// Noncontig is Argonne's column-access benchmark.
func Noncontig(procs int, fileBytes int64, write bool) workloads.Noncontig {
	n := workloads.DefaultNoncontig()
	n.Procs = procs
	n.FileBytes = fileBytes
	n.Write = write
	return n
}

// BTIO is the NAS BT-IO solver write phase.
func BTIO(procs int, totalBytes int64, steps int) workloads.BTIO {
	b := workloads.DefaultBTIO()
	b.Procs = procs
	b.TotalBytes = totalBytes
	b.Steps = steps
	return b
}

// HPIO is the Northwestern/Sandia region benchmark.
func HPIO(procs int, regions, regionBytes, spacing int64) workloads.HPIO {
	h := workloads.DefaultHPIO()
	h.Procs = procs
	h.RegionCount = regions
	h.RegionBytes = regionBytes
	h.RegionSpacing = spacing
	return h
}

// S3asim is the sequence-similarity search workload.
func S3asim(procs, queries int) workloads.S3asim {
	s := workloads.DefaultS3asim()
	s.Procs = procs
	s.Queries = queries
	return s
}

// ReplayTrace parses a CSV I/O trace (see workloads.ParseTrace for the
// format) into a replayable program, so real applications' recorded I/O can
// be evaluated under every execution mode.
func ReplayTrace(name string, r io.Reader) (*workloads.Replay, error) {
	return workloads.ParseTrace(name, r)
}

// Checkpoint is the PLFS-style N-1 checkpoint pattern: every rank writes an
// unaligned block of one shared file per barrier-synchronized checkpoint.
func Checkpoint(procs, checkpoints int, blockBytes int64) workloads.Checkpoint {
	c := workloads.DefaultCheckpoint()
	c.Procs = procs
	c.Checkpoints = checkpoints
	c.BlockBytes = blockBytes
	return c
}
