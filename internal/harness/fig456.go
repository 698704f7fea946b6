package harness

import (
	"fmt"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/metrics"
	"dualpar/internal/workloads"
)

// Fig4 regenerates Figure 4: three concurrent BTIO instances, system I/O
// throughput as process parallelism grows (16, 64, 256), under the three
// schemes.
func Fig4(o Opts) *Result {
	res := &Result{
		ID:    "fig4",
		Title: "Fig 4: 3 concurrent BTIO instances, system throughput (MB/s)",
		Table: &metrics.Table{Header: []string{"procs", "req_bytes", "vanilla", "collective", "dualpar"}},
	}
	res.note("paper: collective and DualPar beat vanilla by up to 24x and 35x; collective's edge shrinks as procs grow; DualPar scales better")
	procsList := []int{16, 64, 256}
	total := int64(6 << 20)
	if o.Quick {
		procsList = []int{16, 64}
		total = 2 << 20
	}
	btio := func(procs int) workloads.BTIO {
		b := workloads.DefaultBTIO()
		b.Procs = procs
		b.TotalBytes = total
		b.Steps = 2
		b.StepCompute = 20 * time.Millisecond
		return b
	}
	ns := len(threeSchemes)
	vals := sweep(o, grid("fig4", each("procs=%d", procsList), each("%s", threeSchemes)), func(i int) string {
		procs, sch := procsList[i/ns], threeSchemes[i%ns]
		specs := make([]runSpec, 3)
		for k := range specs {
			inst := btio(procs)
			inst.FileName = fmt.Sprintf("btio-%d.dat", k)
			specs[k] = runSpec{prog: inst, mode: sch.mode}
		}
		ms, _ := o.execute(false, 12*time.Hour, core.DefaultConfig(), specs)
		o.logf("fig4 procs=%d %s: %.2f MB/s", procs, sch.label, aggThroughputMBs(ms))
		return mb(aggThroughputMBs(ms))
	})
	for pi, procs := range procsList {
		res.Table.AddRow(append([]string{fmt.Sprintf("%d", procs), fmt.Sprintf("%d", btio(procs).BlockBytes())},
			vals[pi*ns:(pi+1)*ns]...)...)
	}
	return res
}

// Fig5 regenerates Figure 5: three concurrent S3asim instances, total I/O
// time as the query count grows.
func Fig5(o Opts) *Result {
	res := &Result{
		ID:    "fig5",
		Title: "Fig 5: 3 concurrent S3asim instances, I/O time (s)",
		Table: &metrics.Table{Header: []string{"queries", "vanilla", "collective", "dualpar"}},
	}
	res.note("paper: DualPar's I/O times are up to 25%% and on average 17%% below the other schemes (requests are larger, so gains are modest)")
	queries := []int{16, 24, 32}
	if o.Quick {
		queries = []int{16}
	}
	ns := len(threeSchemes)
	vals := sweep(o, grid("fig5", each("q=%d", queries), each("%s", threeSchemes)), func(i int) string {
		q, sch := queries[i/ns], threeSchemes[i%ns]
		s := workloads.DefaultS3asim()
		s.Procs = 16
		s.Queries = q
		if o.Quick {
			s.FragmentBytes = 1 << 20
		}
		mode := sch.mode
		if mode == core.ModeCollective {
			// S3asim's per-rank call counts are irregular; its original
			// implementation uses independent I/O inside collective
			// phases. Model "collective IO" as list-I/O batching.
			mode = core.ModeVanilla
		}
		specs := make([]runSpec, 3)
		for k := range specs {
			inst := s
			inst.DBName = fmt.Sprintf("s3db-%d.dat", k)
			inst.OutName = fmt.Sprintf("s3out-%d.dat", k)
			specs[k] = runSpec{prog: inst, mode: mode}
			specs[k].mpiio.ListIO = sch.mode == core.ModeCollective
		}
		ms, _ := o.execute(false, 12*time.Hour, core.DefaultConfig(), specs)
		var io time.Duration
		for _, m := range ms {
			io += m.ioTime
		}
		perRank := io / time.Duration(len(ms)*s.Procs)
		o.logf("fig5 q=%d %s: %.2fs avg I/O per rank", q, sch.label, perRank.Seconds())
		return secs(perRank)
	})
	for qi, q := range queries {
		res.Table.AddRow(append([]string{fmt.Sprintf("%d", q)}, vals[qi*ns:(qi+1)*ns]...)...)
	}
	return res
}

// Table2 regenerates Table II: two concurrent mpi-io-test instances,
// aggregate read and write throughput.
func Table2(o Opts) *Result {
	res := &Result{
		ID:    "table2",
		Title: "Table II: 2 concurrent mpi-io-test instances, aggregate throughput (MB/s)",
		Table: &metrics.Table{Header: []string{"rw", "vanilla", "collective", "dualpar"}},
	}
	res.note("paper: read 106?/168/284 MB/s; write 54/67/127 MB/s; DualPar cuts the average seek distance by up to 10x")
	rws := []string{"read", "write"}
	ns := len(threeSchemes)
	vals := sweep(o, grid("table2", rws, each("%s", threeSchemes)), func(i int) string {
		rw, sch := rws[i/ns], threeSchemes[i%ns]
		ms, _ := table2Run(o, rw == "write", sch.mode, false)
		o.logf("table2 %s %s: %.1f MB/s", rw, sch.label, aggThroughputMBs(ms))
		return mb(aggThroughputMBs(ms))
	})
	for ri, rw := range rws {
		res.Table.AddRow(append([]string{rw}, vals[ri*ns:(ri+1)*ns]...)...)
	}
	return res
}

// table2Run executes the two-instance mpi-io-test scenario.
func table2Run(o Opts, write bool, mode core.Mode, trace bool) ([]measured, *cluster.Cluster) {
	size := int64(96 << 20)
	if o.Quick {
		size = 16 << 20
	}
	mk := func(i int) workloads.MPIIOTest {
		m := workloads.DefaultMPIIOTest()
		m.FileBytes = size
		m.Write = write
		m.FileName = fmt.Sprintf("mpiio-%d.dat", i)
		return m
	}
	return o.execute(trace, 12*time.Hour, core.DefaultConfig(), []runSpec{
		{prog: mk(0), mode: mode},
		{prog: mk(1), mode: mode},
	})
}

// Fig6 regenerates Figure 6: the LBN access order on data server 1 during
// the two-instance mpi-io-test run, vanilla vs DualPar, plus the aggregate
// seek reduction.
func Fig6(o Opts) *Result {
	res := &Result{
		ID:    "fig6",
		Title: "Fig 6: disk access order, 2x mpi-io-test, vanilla vs DualPar",
		Table: &metrics.Table{Header: []string{"scheme", "accesses", "monotonicity", "mean_seek_sectors"}},
	}
	res.note("paper: vanilla hops between the two files' regions; DualPar reduces average seek distance by up to 10x")
	outs := sweep(o, each("fig6/%s", twoSchemes), func(i int) lbnSample {
		sch := twoSchemes[i]
		ms, cl := table2Run(o, false, sch.mode, true)
		// Sample a one-second (or one-third-of-run) window mid-run, like
		// the paper's randomly selected second.
		longest := max(ms[0].elapsed, ms[1].elapsed)
		out := lbnWindow(cl, sch.label, longest/3, min(time.Second, longest/3))
		o.logf("fig6 %s: %s accesses, mean seek %s sectors", sch.label, out.row[1], out.row[3])
		return out
	})
	for _, out := range outs {
		res.Series = append(res.Series, out.series)
		res.Table.AddRow(out.row...)
	}
	return res
}
