package harness

import (
	"time"

	"dualpar/internal/core"
	"dualpar/internal/metrics"
	"dualpar/internal/workloads"
)

// fig3Program builds one of the three workloads in read or write mode, at
// the default 64 processes and a scaled data volume (paper: mpi-io-test
// 2 GB / 16 KB, noncontig vector columns, ior-mpi-io 16 GB / 32 KB).
func fig3Program(name string, write bool, quick bool) workloads.Program {
	size := int64(128 << 20)
	switch {
	case quick:
		size = 16 << 20
	case name == "noncontig":
		size = 96 << 20
	}
	w, err := workloads.Workloads().Lookup(name)
	if err != nil {
		panic(err)
	}
	return w.Build(workloads.Params{Bytes: size, Write: write})
}

// Fig3 regenerates Figure 3: system I/O throughput of a single program
// under vanilla MPI-IO, collective I/O, and DualPar, for reads (a) and
// writes (b).
func Fig3(o Opts) *Result {
	res := &Result{
		ID:    "fig3",
		Title: "Fig 3: single-application system I/O throughput (MB/s)",
		Table: &metrics.Table{Header: []string{"program", "rw", "vanilla", "collective", "dualpar"}},
	}
	res.note("paper (read MB/s): mpi-io-test 115/117/263, noncontig 155/248/390, ior-mpi-io ~170/~150/~390")
	res.note("paper (write): DualPar +35%% over vanilla on ior-mpi-io; roughly 2x on mpi-io-test")
	res.note("files scaled from 2-16 GB to 96-128 MB; shapes, not absolutes, are the target")
	rws := []string{"read", "write"}
	names := []string{"mpi-io-test", "noncontig", "ior-mpi-io"}
	nn, ns := len(names), len(threeSchemes)
	vals := sweep(o, grid("fig3", rws, names, each("%s", threeSchemes)), func(i int) string {
		rw, name, sch := rws[i/(nn*ns)], names[i/ns%nn], threeSchemes[i%ns]
		prog := fig3Program(name, rw == "write", o.Quick)
		ms, _ := o.execute(false, 4*time.Hour, core.DefaultConfig(),
			[]runSpec{{prog: prog, mode: sch.mode}})
		o.logf("fig3 %s %s %s: %.1f MB/s (%.2fs)", name, rw, sch.label,
			ms[0].throughputMBs(), ms[0].elapsed.Seconds())
		return mb(ms[0].throughputMBs())
	})
	for r := 0; r < len(rws)*nn; r++ {
		res.Table.AddRow(append([]string{names[r%nn], rws[r/nn]}, vals[r*ns:(r+1)*ns]...)...)
	}
	return res
}
