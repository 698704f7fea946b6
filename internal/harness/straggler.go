package harness

import (
	"fmt"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/fault"
	"dualpar/internal/metrics"
	"dualpar/internal/workloads"
)

// stragglerProg is the sweep workload: the §II demo (interleaved small
// synchronous reads, pure I/O) — the access pattern where request
// reordering matters most, so a straggling server stresses both the disk
// path and EMC's seek-distance signal.
func stragglerProg(quick bool) workloads.Demo {
	d := workloads.DefaultDemo()
	calls := int64(48)
	if quick {
		calls = 12
	}
	d.FileBytes = calls * int64(d.Procs) * int64(d.SegsPerCall) * d.SegBytes
	return d
}

// Straggler sweeps the severity of a single degraded data server — its
// disk served at 1x (healthy), 2x, 5x, and 10x slower — and measures the
// end-to-end slowdown it inflicts on a vanilla run versus a DualPar
// (data-driven) run. Both runs carry the client and CRM retry watchdogs.
// The reproduction target: DualPar's batched, sorted list I/O keeps the
// healthy servers streaming and bounds the straggler's blast radius, so
// its slowdown curve stays well below vanilla's; and the run completes at
// every severity (liveness under degradation, not just performance).
func Straggler(o Opts) *Result {
	res := &Result{
		ID:    "straggler",
		Title: "Straggler tolerance: one data server degraded, demo workload",
		Table: &metrics.Table{Header: []string{
			"severity", "vanilla_s", "vanilla_slowdown", "dualpar_s", "dualpar_slowdown"}},
	}
	severities := []float64{1, 2, 5, 10}
	if o.Quick {
		severities = []float64{1, 10}
	}
	prog := stragglerProg(o.Quick)
	res.note("one server's disk degraded for the whole run; fault layer + retry watchdogs on in every cell (severity 1 = healthy baseline)")

	// One cell per (severity, mode); a cell that does not finish reports a
	// zero elapsed time and its DNF note, appended in canonical order.
	type out struct {
		elapsed time.Duration
		note    string
	}
	ns := len(twoSchemes)
	outs := sweep(o, grid("straggler", each("%gx", severities), each("%s", twoSchemes)), func(i int) out {
		sev, m := severities[i/ns], twoSchemes[i%ns]
		o.logf("straggler: severity %gx %s", sev, m.label)
		sch := &fault.Schedule{}
		if sev > 1 {
			sch.Windows = []fault.Window{
				{Kind: fault.DiskSlow, Target: 1, Factor: sev},
			}
		}
		cfg, ddCfg := o.faulted(sch)
		ms, _ := o.executeOn(cluster.New(cfg), time.Hour, ddCfg,
			[]runSpec{{prog: prog, mode: m.mode}})
		if !ms[0].finished {
			return out{note: fmt.Sprintf("severity %gx/%v DID NOT FINISH within the time budget", sev, m.mode)}
		}
		return out{elapsed: ms[0].elapsed}
	})
	for _, out := range outs {
		if out.note != "" {
			res.note("%s", out.note)
		}
	}
	var vanBase, ddBase time.Duration
	for si, sev := range severities {
		van, dd := outs[si*ns].elapsed, outs[si*ns+1].elapsed
		if sev == 1 {
			vanBase, ddBase = van, dd
		}
		slow := func(t, base time.Duration) string {
			if base <= 0 || t <= 0 {
				return "-"
			}
			return fmt.Sprintf("%.2fx", float64(t)/float64(base))
		}
		res.Table.AddRow(fmt.Sprintf("%gx", sev),
			secs(van), slow(van, vanBase), secs(dd), slow(dd, ddBase))
	}
	return res
}
