// Package harness reproduces the paper's evaluation: one driver per table
// and figure (§II and §V), each returning a Result with the regenerated
// rows/series next to the paper's reported values. Absolute numbers are not
// expected to match (the substrate is a simulator, the data sizes are
// scaled); the shapes — who wins, by roughly what factor, where crossovers
// fall — are the reproduction target.
package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/fault"
	"dualpar/internal/metrics"
	"dualpar/internal/mpiio"
	"dualpar/internal/obs"
	"dualpar/internal/workloads"
)

// Opts tunes an experiment run.
type Opts struct {
	// Quick shrinks workloads for smoke tests and benchmarks.
	Quick bool
	// Log receives progress lines (nil = silent).
	Log io.Writer
	// Seed for the simulation; runs are deterministic per seed.
	Seed int64
	// Parallel caps how many sweep cells run concurrently: 0 means
	// GOMAXPROCS, 1 reproduces the serial path exactly. Result tables are
	// byte-identical at every setting (see pool.go); only progress-log
	// interleaving differs.
	Parallel int
	// Ctx cancels a long sweep mid-flight (nil = never).
	Ctx context.Context
}

func (o Opts) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Opts) parallel() int {
	if o.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

func (o Opts) logf(format string, args ...interface{}) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string
	Title string
	// Table holds the regenerated rows (most experiments).
	Table *metrics.Table
	// Series holds regenerated time series (Fig 1c/d, 6, 7).
	Series []*metrics.Series
	// Notes records scaling decisions and paper-reported reference values.
	Notes []string
}

// note appends a formatted note.
func (r *Result) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// engineOverride is the storage engine every experiment cluster's data
// servers use ("" = the extent default). Set once by SetEngine before the
// suite starts (the worker pool reads it concurrently).
var engineOverride string

// SetEngine routes every subsequent experiment run through the named fs
// storage engine; see fs.Engines for the choices. The engines experiment
// overrides it per cell regardless.
func SetEngine(name string) { engineOverride = name }

// baseConfig is cluster.DefaultConfig plus the harness-wide overrides
// (currently the storage-engine selection). Every experiment builds its
// cluster from here so -engine reaches all of them.
func baseConfig() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.FS.Engine = engineOverride
	return cfg
}

// paperCluster builds the paper's platform: 9 data servers (two-disk RAID,
// CFQ), a metadata server, 8 compute nodes, GigE, PVFS2 with 64 KB stripes.
func paperCluster(seed int64, trace bool) *cluster.Cluster {
	cfg := baseConfig()
	cfg.Seed = seed
	cfg.TraceServers = trace
	return cluster.New(cfg)
}

// runSpec describes one program inside a measurement run.
type runSpec struct {
	prog    workloads.Program
	mode    core.Mode
	nodeOff int // FirstNodeIndex
	startAt time.Duration
	mpiio   mpiio.Config
}

// measured captures one program's outcome.
type measured struct {
	elapsed  time.Duration
	bytes    int64
	ioTime   time.Duration
	finished bool
	run      *core.ProgramRun
}

// throughputMBs is the program's own data volume over its elapsed time.
func (m measured) throughputMBs() float64 {
	if m.elapsed <= 0 {
		return 0
	}
	return float64(m.bytes) / (1 << 20) / m.elapsed.Seconds()
}

// execute runs the given programs together on a fresh cluster and returns
// per-program measurements (in spec order) plus the cluster for stats.
func execute(seed int64, trace bool, maxTime time.Duration, ddCfg core.Config, specs []runSpec) ([]measured, *cluster.Cluster) {
	return executeOn(paperCluster(seed, trace), maxTime, ddCfg, specs)
}

// executeFaults is execute with a fault schedule threaded through the
// cluster and the retry watchdogs armed at both layers (PFS client request
// timeouts plus the coarser CRM batch watchdog above them), so degraded
// runs make progress instead of pinning on a straggler.
func executeFaults(seed int64, maxTime time.Duration, ddCfg core.Config, sch *fault.Schedule, specs []runSpec) ([]measured, *cluster.Cluster) {
	cfg := baseConfig()
	cfg.Seed = seed
	cfg.Faults = sch
	core.ArmWatchdogs(&cfg, &ddCfg)
	return executeOn(cluster.New(cfg), maxTime, ddCfg, specs)
}

// auditRuns arms the invariant oracles on every experiment run. Set once by
// SetAudit before the suite starts (the worker pool reads it concurrently).
var auditRuns bool

// SetAudit makes every subsequent experiment run execute with the audit
// oracles armed; any violated invariant panics with the keyed error and its
// reproducer artifact path, failing the suite loudly.
func SetAudit(v bool) { auditRuns = v }

func executeOn(cl *cluster.Cluster, maxTime time.Duration, ddCfg core.Config, specs []runSpec) ([]measured, *cluster.Cluster) {
	if auditRuns {
		ddCfg.Audit = true
	}
	var reportCol *obs.Collector
	if reportRuns && cl.Obs() == nil {
		reportCol = obs.NewCollector()
		cl.EnableObs(reportCol)
	}
	r := core.NewRunner(cl, ddCfg)
	var runs []*core.ProgramRun
	for _, sp := range specs {
		runs = append(runs, r.Add(sp.prog, sp.mode, core.AddOptions{
			RanksPerNode:   8,
			FirstNodeIndex: sp.nodeOff,
			StartAt:        sp.startAt,
			MPIIO:          sp.mpiio,
		}))
	}
	r.Run(maxTime)
	if err := r.AuditErr(); err != nil {
		panic(err)
	}
	if reportCol != nil {
		recordReport(reportKey(cl, specs, reportCol), reportCol)
	}
	out := make([]measured, len(specs))
	for i, pr := range runs {
		var io time.Duration
		for rnk := range pr.Instr().Ranks {
			io += pr.Instr().Ranks[rnk].IOTime
		}
		out[i] = measured{
			elapsed:  pr.Elapsed(),
			bytes:    pr.Instr().TotalBytes(),
			ioTime:   io,
			finished: pr.Done,
			run:      pr,
		}
	}
	return out, cl
}

// aggThroughputMBs is the combined volume of all programs over the time to
// finish them all (the paper's "system I/O throughput" for concurrent
// runs).
func aggThroughputMBs(ms []measured) float64 {
	var bytes int64
	var last time.Duration
	for _, m := range ms {
		bytes += m.bytes
		if m.elapsed > last {
			last = m.elapsed
		}
	}
	if last <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / last.Seconds()
}

// mb formats a throughput cell.
func mb(v float64) string { return fmt.Sprintf("%.1f", v) }

// secs formats a duration cell.
func secs(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// modes under comparison in most experiments.
var threeSchemes = []struct {
	label string
	mode  core.Mode
}{
	{"vanilla", core.ModeVanilla},
	{"collective", core.ModeCollective},
	{"dualpar", core.ModeDataDriven},
}
