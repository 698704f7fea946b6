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
var fig1Strategies = []struct {
	label string
	mode  core.Mode
}{
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

// Fig1a regenerates Figure 1(a): demo execution time under the three
// strategies as the I/O ratio sweeps from ~20% to 100% (4 KB segments).
func Fig1a(o Opts) *Result {
	res := &Result{
		ID:    "fig1a",
		Title: "Fig 1a: demo execution time (s) vs I/O ratio, 4 KB segments",
		Table: &metrics.Table{Header: []string{"io_ratio", "strategy1", "strategy2", "strategy3"}},
	}
	res.note("paper: strategy2 wins at low I/O ratio; crossover near 70%%; at ~100%% strategy3 is ~36%% faster")
	o = o.forSweep()
	ratios := []float64{0.19, 0.31, 0.43, 0.72, 0.86, 1.0}
	if o.Quick {
		ratios = []float64{0.31, 0.86, 1.0}
	}
	// One cell per ratio: the calibration probe is shared by the three
	// strategy runs inside the cell, exactly as the serial loop ordered them.
	rows := make([][]string, len(ratios))
	cells := make([]Cell, len(ratios))
	for i, ratio := range ratios {
		cells[i] = Cell{
			Key: fmt.Sprintf("fig1a/ratio=%.2f", ratio),
			Run: func() {
				compute := o.demoComputeFor(4<<10, ratio)
				row := []string{fmt.Sprintf("%.0f%%", ratio*100)}
				for _, st := range fig1Strategies {
					prog := fig1Demo(4<<10, compute, o.Quick)
					ms, _ := o.execute(false, time.Hour, core.DefaultConfig(),
						[]runSpec{{prog: prog, mode: st.mode}})
					row = append(row, secs(ms[0].elapsed))
					o.logf("fig1a ratio=%.2f %s: %.2fs", ratio, st.label, ms[0].elapsed.Seconds())
				}
				rows[i] = row
			},
		}
	}
	runSweep(o, cells)
	for _, row := range rows {
		res.Table.AddRow(row...)
	}
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
	o = o.forSweep()
	sizes := []int64{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
	if o.Quick {
		sizes = []int64{4 << 10, 32 << 10, 128 << 10}
	}
	rows := make([][]string, len(sizes))
	cells := make([]Cell, len(sizes))
	for i, seg := range sizes {
		cells[i] = Cell{
			Key: fmt.Sprintf("fig1b/seg=%dKB", seg>>10),
			Run: func() {
				compute := o.demoComputeFor(seg, 0.9)
				row := []string{fmt.Sprintf("%dKB", seg>>10)}
				for _, st := range fig1Strategies {
					prog := fig1Demo(seg, compute, o.Quick)
					ms, _ := o.execute(false, time.Hour, core.DefaultConfig(),
						[]runSpec{{prog: prog, mode: st.mode}})
					row = append(row, secs(ms[0].elapsed))
					o.logf("fig1b seg=%dKB %s: %.2fs", seg>>10, st.label, ms[0].elapsed.Seconds())
				}
				rows[i] = row
			},
		}
	}
	runSweep(o, cells)
	for _, row := range rows {
		res.Table.AddRow(row...)
	}
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
	o = o.forSweep()
	// The calibration probe is shared by both strategies, so it runs before
	// the sweep — same order the serial loop used.
	compute := o.demoComputeFor(4<<10, 0.9)
	strategies := []struct {
		label string
		mode  core.Mode
	}{{"strategy2", core.ModeStrategy2}, {"strategy3", core.ModeDataDriven}}
	type cdOut struct {
		series *metrics.Series
		row    []string
	}
	outs := make([]cdOut, len(strategies))
	cells := make([]Cell, len(strategies))
	for i, st := range strategies {
		cells[i] = Cell{
			Key: "fig1cd/" + st.label,
			Run: func() {
				prog := fig1Demo(4<<10, compute, o.Quick)
				ms, cl := o.execute(true, time.Hour, core.DefaultConfig(),
					[]runSpec{{prog: prog, mode: st.mode}})
				tr := cl.Stores[0].Device().Trace()
				// Sample a window in the middle of the run, like the paper's
				// 5.2-5.4 s sample.
				from := ms[0].elapsed / 3
				to := from + ms[0].elapsed/3
				entries := tr.Window(from, to)
				if len(entries) < 2 {
					entries = tr.Entries()
				}
				s := &metrics.Series{Name: "lbn-" + st.label}
				for _, e := range entries {
					s.Add(e.At, float64(e.LBN))
				}
				outs[i] = cdOut{series: s, row: []string{st.label,
					fmt.Sprintf("%d", len(entries)),
					fmt.Sprintf("%.2f", diskMonotonicity(entries)),
					fmt.Sprintf("%.0f", diskMeanSeek(entries))}}
				o.logf("fig1cd %s: %d accesses, monotonicity %.2f", st.label, len(entries), diskMonotonicity(entries))
			},
		}
	}
	runSweep(o, cells)
	for _, out := range outs {
		res.Series = append(res.Series, out.series)
		res.Table.AddRow(out.row...)
	}
	return res
}
