package harness

import (
	"fmt"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/fs"
	"dualpar/internal/metrics"
	"dualpar/internal/workloads"
)

// enginesProg scales the §II demo for the engine sweep. Write mode keeps
// the identical access pattern with the direction flipped, so the same
// cell grid exposes each engine's read-seek profile and write-landing
// policy (update-in-place vs. sequential log append).
func enginesProg(quick, write bool) workloads.Demo {
	d := workloads.DefaultDemo()
	calls := int64(48)
	if quick {
		calls = 12
	}
	d.FileBytes = calls * int64(d.Procs) * int64(d.SegsPerCall) * d.SegBytes
	d.Write = write
	d.FileName = "engines.dat"
	return d
}

// Engines sweeps storage engine × scheme × workload direction: the same
// demo program runs on the contiguous-extent default, the fragmented
// layout of an aged FS ("bptree", printed "B+tree (aged)" for output
// compatibility), and the log-structured engine, under vanilla and
// DualPar execution (plus collective in the full suite). The
// question it answers is the one the paper leaves open: DualPar's win
// comes from reordering reads around seeks — does it survive on backends
// whose seek profile is different (aged/fragmented) or whose writes are
// sequential by construction (LSM)? Alongside throughput, each cell
// reports the disks' positioning-vs-payload split (seek+rotation time vs
// media transfer time), which is the mechanism, not just the outcome.
func Engines(o Opts) *Result {
	res := &Result{
		ID:    "engines",
		Title: "Storage-engine sweep: extent vs B+tree (aged) vs LSM, demo workload",
		Table: &metrics.Table{Header: []string{
			"engine", "workload", "scheme", "MB/s", "seek_s", "transfer_s", "seek_frac"}},
	}
	schemes := threeSchemes
	if o.Quick {
		schemes = twoSchemes
	}
	dirs := []string{"read", "write"}
	engines := fs.Engines()
	res.note("seek_s aggregates disk positioning time (seek + rotation) across data servers; transfer_s is media transfer; seek_frac = seek/(seek+transfer)")
	res.note("LSM cells run background compaction charged to the disks at the default throttled rate")

	nd, ns := len(dirs), len(schemes)
	res.Table.Rows = sweep(o, grid("engines", engines, dirs, each("%s", schemes)), func(i int) []string {
		eng, dir, sch := engines[i/(nd*ns)], dirs[i/ns%nd], schemes[i%ns]
		o.logf("engines: %s %s %s", eng, dir, sch.label)
		cfg := o.config()
		cfg.FS.Engine = eng
		ms, cl := o.executeOn(cluster.New(cfg), time.Hour, core.DefaultConfig(),
			[]runSpec{{prog: enginesProg(o.Quick, dir == "write"), mode: sch.mode}})
		st := cl.ServerStats()
		frac := "-"
		if tot := st.SeekTime + st.TransferTime; tot > 0 {
			frac = fmt.Sprintf("%.2f", float64(st.SeekTime)/float64(tot))
		}
		return []string{eng, dir, sch.label,
			mb(ms[0].throughputMBs()), secs(st.SeekTime), secs(st.TransferTime), frac}
	})
	return res
}
