package harness

import (
	"fmt"
	"time"

	"dualpar/internal/core"
	"dualpar/internal/metrics"
	"dualpar/internal/workloads"
)

// fig1Demo returns the §II demo program: 8 processes, 16 segments per call.
func fig1Demo(segBytes int64, computePerCall time.Duration, quick bool) workloads.Demo {
	d := workloads.DefaultDemo()
	d.SegBytes = segBytes
	d.ComputePerCall = computePerCall
	calls := int64(64)
	if quick {
		calls = 16
	}
	d.FileBytes = calls * int64(d.Procs) * int64(d.SegsPerCall) * segBytes
	return d
}

// fig1Strategies are the three §II strategies.
var fig1Strategies = []scheme{
	{"strategy1", core.ModeVanilla},
	{"strategy2", core.ModeStrategy2},
	{"strategy3", core.ModeDataDriven},
}

// demoComputeFor calibrates the per-call compute time that yields the target
// I/O ratio in the vanilla system: first measure pure-I/O time per call,
// then set compute = ioPerCall*(1-ratio)/ratio (the paper's definition of
// I/O ratio is relative to the vanilla run).
func (o Opts) demoComputeFor(segBytes int64, ratio float64) time.Duration {
	probe := fig1Demo(segBytes, 0, o.Quick)
	ms, _ := o.execute(false, time.Hour, core.DefaultConfig(),
		[]runSpec{{prog: probe, mode: core.ModeVanilla}})
	calls := probe.Calls()
	ioPerCall := ms[0].elapsed / time.Duration(calls)
	if ratio >= 1 {
		return 0
	}
	return time.Duration(float64(ioPerCall) * (1 - ratio) / ratio)
}

// fig1Row runs the demo of segBytes segments under the three strategies,
// calibrated to the given vanilla I/O ratio, and returns the table row:
// label, then each strategy's execution time. The calibration probe is
// shared by the row's three runs, so a row is one sweep cell.
func (o Opts) fig1Row(id, label string, segBytes int64, ratio float64) []string {
	compute := o.demoComputeFor(segBytes, ratio)
	row := []string{label}
	for _, st := range fig1Strategies {
		prog := fig1Demo(segBytes, compute, o.Quick)
		ms, _ := o.execute(false, time.Hour, core.DefaultConfig(),
			[]runSpec{{prog: prog, mode: st.mode}})
		row = append(row, secs(ms[0].elapsed))
		o.logf("%s %s %s: %.2fs", id, label, st.label, ms[0].elapsed.Seconds())
	}
	return row
}

// Fig1a regenerates Figure 1(a): demo execution time under the three
// strategies as the I/O ratio sweeps from ~20% to 100% (4 KB segments).
func Fig1a(o Opts) *Result {
	res := &Result{
		ID:    "fig1a",
		Title: "Fig 1a: demo execution time (s) vs I/O ratio, 4 KB segments",
		Table: &metrics.Table{Header: []string{"io_ratio", "strategy1", "strategy2", "strategy3"}},
	}
	res.note("paper: strategy2 wins at low I/O ratio; crossover near 70%%; at ~100%% strategy3 is ~36%% faster")
	ratios := []float64{0.19, 0.31, 0.43, 0.72, 0.86, 1.0}
	if o.Quick {
		ratios = []float64{0.31, 0.86, 1.0}
	}
	res.Table.Rows = sweep(o, each("fig1a/ratio=%.2f", ratios), func(i int) []string {
		return o.fig1Row("fig1a", fmt.Sprintf("%.0f%%", ratios[i]*100), 4<<10, ratios[i])
	})
	return res
}

// Fig1b regenerates Figure 1(b): demo execution time vs segment size at a
// fixed ~90% I/O ratio.
func Fig1b(o Opts) *Result {
	res := &Result{
		ID:    "fig1b",
		Title: "Fig 1b: demo execution time (s) vs segment size, I/O ratio 90%",
		Table: &metrics.Table{Header: []string{"segment", "strategy1", "strategy2", "strategy3"}},
	}
	res.note("paper: at 4 KB strategy2 reaches 64%% of strategy3's throughput; advantage fades beyond 32 KB")
	sizes := []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
	if o.Quick {
		sizes = []int64{4 << 10, 32 << 10, 128 << 10}
	}
	res.Table.Rows = sweep(o, each("fig1b/seg=%d", sizes), func(i int) []string {
		return o.fig1Row("fig1b", fmt.Sprintf("%dKB", sizes[i]>>10), sizes[i], 0.9)
	})
	return res
}

// Fig1cd regenerates Figures 1(c,d): the disk addresses (LBNs) served on
// data server 1 during a sampled window under strategy 2 vs strategy 3.
// The series' monotonicity summarizes "back-and-forth" vs "one direction".
func Fig1cd(o Opts) *Result {
	res := &Result{
		ID:    "fig1cd",
		Title: "Fig 1c/d: disk access order on data server 1, strategy 2 vs 3",
		Table: &metrics.Table{Header: []string{"strategy", "accesses", "monotonicity", "mean_seek_sectors"}},
	}
	res.note("paper: strategy 2 shows short sequences growing in opposite directions; strategy 3 moves mostly one way")
	// The calibration probe is shared by both strategies, so it runs before
	// the sweep — same order the serial loop used.
	compute := o.demoComputeFor(4<<10, 0.9)
	strategies := fig1Strategies[1:]
	outs := sweep(o, each("fig1cd/%s", strategies), func(i int) lbnSample {
		st := strategies[i]
		prog := fig1Demo(4<<10, compute, o.Quick)
		ms, cl := o.execute(true, time.Hour, core.DefaultConfig(),
			[]runSpec{{prog: prog, mode: st.mode}})
		// Sample the middle third of the run, like the paper's 5.2-5.4 s
		// sample.
		out := lbnWindow(cl, st.label, ms[0].elapsed/3, ms[0].elapsed/3)
		o.logf("fig1cd %s: %s accesses, monotonicity %s", st.label, out.row[1], out.row[2])
		return out
	})
	for _, out := range outs {
		res.Series = append(res.Series, out.series)
		res.Table.AddRow(out.row...)
	}
	return res
}
