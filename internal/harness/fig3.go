package harness

import (
	"fmt"
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
	o = o.forSweep()
	res := &Result{
		ID:    "fig3",
		Title: "Fig 3: single-application system I/O throughput (MB/s)",
		Table: &metrics.Table{Header: []string{"program", "rw", "vanilla", "collective", "dualpar"}},
	}
	res.note("paper (read MB/s): mpi-io-test 115/117/263, noncontig 155/248/390, ior-mpi-io ~170/~150/~390")
	res.note("paper (write): DualPar +35%% over vanilla on ior-mpi-io; roughly 2x on mpi-io-test")
	res.note("files scaled from 2-16 GB to 96-128 MB; shapes, not absolutes, are the target")
	rws := []struct {
		label string
		write bool
	}{{"read", false}, {"write", true}}
	names := []string{"mpi-io-test", "noncontig", "ior-mpi-io"}
	cells := make([]Cell, 0, len(rws)*len(names)*len(threeSchemes))
	vals := make([][]string, len(rws)*len(names))
	for i := range vals {
		vals[i] = make([]string, len(threeSchemes))
	}
	for ri, rw := range rws {
		for ni, name := range names {
			row := vals[ri*len(names)+ni]
			for si, sch := range threeSchemes {
				cells = append(cells, Cell{
					Key: fmt.Sprintf("fig3/%s/%s/%s", rw.label, name, sch.label),
					Run: func() {
						prog := fig3Program(name, rw.write, o.Quick)
						ms, _ := o.execute(false, 4*time.Hour, core.DefaultConfig(),
							[]runSpec{{prog: prog, mode: sch.mode}})
						row[si] = mb(ms[0].throughputMBs())
						o.logf("fig3 %s %s %s: %.1f MB/s (%.2fs)", name, rw.label, sch.label,
							ms[0].throughputMBs(), ms[0].elapsed.Seconds())
					},
				})
			}
		}
	}
	runSweep(o, cells)
	for ri, rw := range rws {
		for ni, name := range names {
			res.Table.AddRow(append([]string{name, rw.label}, vals[ri*len(names)+ni]...)...)
		}
	}
	return res
}
