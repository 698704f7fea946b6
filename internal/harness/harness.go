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
	"strings"
	"sync"
	"time"

	"dualpar/internal/burst"
	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/disk"
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
	// Parallel caps how many cells of one sweep run concurrently: 0 means
	// GOMAXPROCS, 1 reproduces the serial path exactly. The cap is per
	// sweep level, and Run's sweep over experiments nests each
	// experiment's own sweep, so up to Parallel×Parallel cells can run at
	// once. Result tables are byte-identical at every setting (see
	// pool.go); only progress-log interleaving differs.
	Parallel int
	// Ctx cancels a long sweep mid-flight (nil = never).
	Ctx context.Context
	// Audit arms the invariant oracles on every run; a violated invariant
	// panics with the keyed error and its reproducer artifact path, failing
	// the sweep loudly.
	Audit bool
	// Engine is the storage engine of every cluster's data servers (see
	// fs.Engines; "" = the extent default). The engines experiment
	// overrides it per cell regardless.
	Engine string
	// Reports, when non-nil, receives the time attribution of every run.
	// Off by default: tracing every cell of a sweep costs memory
	// proportional to its span count.
	Reports *Reports
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

// logMu serializes progress lines from concurrent sweep cells, so each line
// is written whole and a sink that is not safe for concurrent use (a
// bytes.Buffer in tests) can be shared.
var logMu sync.Mutex

func (o Opts) logf(format string, args ...interface{}) {
	if o.Log == nil {
		return
	}
	logMu.Lock()
	defer logMu.Unlock()
	fmt.Fprintf(o.Log, format+"\n", args...)
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

// WriteText prints the result as the experiments command does: title,
// notes, table, and charts.
func (r *Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w, r.Table.String())
	for _, s := range r.Series {
		fmt.Fprint(w, metrics.ASCIIChart(s, 72, 8))
	}
}

// note appends a formatted note.
func (r *Result) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// notedRow is one sweep cell's table row plus the notes it raised.
type notedRow struct {
	row   []string
	notes []string
}

// addRows appends the cells' notes and rows in canonical (sweep key) order.
func (r *Result) addRows(outs []notedRow) {
	for _, out := range outs {
		r.Notes = append(r.Notes, out.notes...)
		r.Table.AddRow(out.row...)
	}
}

// config is cluster.DefaultConfig seeded and routed through o's storage
// engine. Every experiment builds its cluster from here so -engine reaches
// all of them.
func (o Opts) config() cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Seed = o.seed()
	cfg.FS.Engine = o.Engine
	return cfg
}

// cluster builds the paper's platform: 9 data servers (two-disk RAID,
// CFQ), a metadata server, 8 compute nodes, GigE, PVFS2 with 64 KB stripes.
func (o Opts) cluster(trace bool) *cluster.Cluster {
	cfg := o.config()
	cfg.TraceServers = trace
	return cluster.New(cfg)
}

// faulted is o's cluster config with a fault schedule threaded through and
// the retry watchdogs armed at both layers (PFS client request timeouts
// plus the coarser CRM batch watchdog above them), so degraded runs make
// progress instead of pinning on a straggler.
func (o Opts) faulted(sch *fault.Schedule) (cluster.Config, core.Config) {
	cfg := o.config()
	cfg.Faults = sch
	ddCfg := core.DefaultConfig()
	core.ArmWatchdogs(&cfg, &ddCfg)
	return cfg, ddCfg
}

// crashCluster is the replicated-crash preset: a faulted cluster that
// stripes every file across replicas copies, detects a crashed server after
// 100 ms, and tracks written content for the integrity oracle. bcfg adds a
// burst-buffer write log on every compute node (nil = direct writes).
func (o Opts) crashCluster(replicas int, sch *fault.Schedule, bcfg *burst.Config) (*cluster.Cluster, core.Config) {
	cfg, ddCfg := o.faulted(sch)
	cfg.PFS.Replicas = replicas
	cfg.PFS.DetectDelay = 100 * time.Millisecond
	cfg.Burst = bcfg
	cl := cluster.New(cfg)
	cl.FS.EnableIntegrity()
	return cl, ddCfg
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

// execute runs the given programs together on a fresh paper cluster and
// returns per-program measurements (in spec order) plus the cluster for
// stats.
func (o Opts) execute(trace bool, maxTime time.Duration, ddCfg core.Config, specs []runSpec) ([]measured, *cluster.Cluster) {
	return o.executeOn(o.cluster(trace), maxTime, ddCfg, specs)
}

// executeOn is execute on a caller-built cluster, through o's run phase.
func (o Opts) executeOn(cl *cluster.Cluster, maxTime time.Duration, ddCfg core.Config, specs []runSpec) ([]measured, *cluster.Cluster) {
	var b strings.Builder
	for _, sp := range specs {
		fmt.Fprintf(&b, "|%s/%s/r%d/off%d/at%s",
			sp.prog.Name(), sp.mode, sp.prog.Ranks(), sp.nodeOff, sp.startAt)
	}
	var runs []*core.ProgramRun
	o.run(cl, maxTime, ddCfg, b.String(), func(r *core.Runner) {
		for _, sp := range specs {
			runs = append(runs, r.Add(sp.prog, sp.mode, core.AddOptions{
				RanksPerNode:   8,
				FirstNodeIndex: sp.nodeOff,
				StartAt:        sp.startAt,
				MPIIO:          sp.mpiio,
			}))
		}
	})
	out := make([]measured, len(specs))
	for i, pr := range runs {
		out[i] = measure(pr)
	}
	return out, cl
}

// run is the run phase every harness run goes through: add registers the
// programs on a fresh runner over cl, which then runs until maxTime.
// o.Audit arms the invariant oracles (a violation panics with the keyed
// error and its reproducer artifact path); a non-nil o.Reports receives the
// run's time attribution, keyed by spec (see reportKey). It reports whether
// every program finished.
func (o Opts) run(cl *cluster.Cluster, maxTime time.Duration, ddCfg core.Config, spec string, add func(*core.Runner)) bool {
	if o.Audit {
		ddCfg.Audit = true
	}
	var reportCol *obs.Collector
	if o.Reports != nil && cl.Obs() == nil {
		reportCol = obs.NewCollector()
		cl.EnableObs(reportCol)
	}
	r := core.NewRunner(cl, ddCfg)
	add(r)
	finished := r.Run(maxTime)
	if err := r.AuditErr(); err != nil {
		panic(err)
	}
	if reportCol != nil {
		o.Reports.record(reportKey(cl, spec, reportCol), reportCol)
	}
	return finished
}

// measure reads one finished (or budget-cut) program's outcome.
func measure(pr *core.ProgramRun) measured {
	var io time.Duration
	for rnk := range pr.Instr().Ranks {
		io += pr.Instr().Ranks[rnk].IOTime
	}
	return measured{
		elapsed:  pr.Elapsed(),
		bytes:    pr.Instr().TotalBytes(),
		ioTime:   io,
		finished: pr.Done,
		run:      pr,
	}
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

// scheme is one labeled execution mode under comparison.
type scheme struct {
	label string
	mode  core.Mode
}

func (s scheme) String() string { return s.label }

// threeSchemes are the modes most experiments compare; twoSchemes drops
// collective I/O.
var (
	threeSchemes = []scheme{
		{"vanilla", core.ModeVanilla},
		{"collective", core.ModeCollective},
		{"dualpar", core.ModeDataDriven},
	}
	twoSchemes = []scheme{threeSchemes[0], threeSchemes[2]}
)

// lbnSample is one traced run's LBN series and the table row summarizing
// it: label, accesses, monotonicity, mean seek in sectors.
type lbnSample struct {
	series *metrics.Series
	row    []string
}

// lbnWindow samples data server 1's disk trace over [from, from+win) of a
// traced run — a window mid-run, like the paper's hand-picked second —
// falling back to the whole trace when the window holds fewer than two
// accesses.
func lbnWindow(cl *cluster.Cluster, label string, from, win time.Duration) lbnSample {
	tr := cl.Stores[0].Dispatcher().Trace()
	entries := tr.Window(from, from+win)
	if len(entries) < 2 {
		entries = tr.Entries()
	}
	s := &metrics.Series{Name: "lbn-" + label}
	for _, e := range entries {
		s.Add(e.At, float64(e.LBN))
	}
	return lbnSample{s, []string{label, fmt.Sprintf("%d", len(entries)),
		fmt.Sprintf("%.2f", disk.Monotonicity(entries)), fmt.Sprintf("%.0f", disk.MeanSeek(entries))}}
}
