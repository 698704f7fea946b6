package harness

import (
	"fmt"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/disk"
	"dualpar/internal/metrics"
	"dualpar/internal/workloads"
)

// diskMonotonicity and diskMeanSeek re-export trace summaries for results.
func diskMonotonicity(entries []disk.Entry) float64 { return disk.Monotonicity(entries) }
func diskMeanSeek(entries []disk.Entry) float64     { return disk.MeanSeek(entries) }

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
	o = o.forSweep()
	procsList := []int{16, 64, 256}
	total := int64(6 << 20)
	steps := 2
	if o.Quick {
		procsList = []int{16, 64}
		total = 2 << 20
	}
	vals := make([][]string, len(procsList))
	prefixes := make([][]string, len(procsList))
	var cells []Cell
	for pi, procs := range procsList {
		vals[pi] = make([]string, len(threeSchemes))
		b := workloads.DefaultBTIO()
		b.Procs = procs
		b.TotalBytes = total
		b.Steps = steps
		b.StepCompute = 20 * time.Millisecond
		prefixes[pi] = []string{fmt.Sprintf("%d", procs), fmt.Sprintf("%d", b.BlockBytes())}
		for si, sch := range threeSchemes {
			cells = append(cells, Cell{
				Key: fmt.Sprintf("fig4/procs=%d/%s", procs, sch.label),
				Run: func() {
					specs := make([]runSpec, 3)
					for i := range specs {
						inst := b
						inst.FileName = fmt.Sprintf("btio-%d.dat", i)
						specs[i] = runSpec{prog: inst, mode: sch.mode}
					}
					ms, _ := o.execute(false, 12*time.Hour, core.DefaultConfig(), specs)
					vals[pi][si] = mb(aggThroughputMBs(ms))
					o.logf("fig4 procs=%d %s: %.2f MB/s", procs, sch.label, aggThroughputMBs(ms))
				},
			})
		}
	}
	runSweep(o, cells)
	for pi := range procsList {
		res.Table.AddRow(append(prefixes[pi], vals[pi]...)...)
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
	o = o.forSweep()
	queries := []int{16, 24, 32}
	if o.Quick {
		queries = []int{16}
	}
	vals := make([][]string, len(queries))
	var cells []Cell
	for qi, q := range queries {
		vals[qi] = make([]string, len(threeSchemes))
		s := workloads.DefaultS3asim()
		s.Procs = 16
		s.Queries = q
		if o.Quick {
			s.FragmentBytes = 1 << 20
		}
		for si, sch := range threeSchemes {
			cells = append(cells, Cell{
				Key: fmt.Sprintf("fig5/q=%d/%s", q, sch.label),
				Run: func() {
					mode := sch.mode
					if mode == core.ModeCollective {
						// S3asim's per-rank call counts are irregular; its original
						// implementation uses independent I/O inside collective
						// phases. Model "collective IO" as list-I/O batching.
						mode = core.ModeVanilla
					}
					specs := make([]runSpec, 3)
					for i := range specs {
						inst := s
						inst.DBName = fmt.Sprintf("s3db-%d.dat", i)
						inst.OutName = fmt.Sprintf("s3out-%d.dat", i)
						specs[i] = runSpec{prog: inst, mode: mode}
						if sch.mode == core.ModeCollective {
							cfgIO := specs[i].mpiio
							cfgIO.ListIO = true
							specs[i].mpiio = cfgIO
						}
					}
					ms, _ := o.execute(false, 12*time.Hour, core.DefaultConfig(), specs)
					var io time.Duration
					var ranks int
					for _, m := range ms {
						io += m.ioTime
						ranks += s.Procs
					}
					perRank := io / time.Duration(ranks)
					vals[qi][si] = secs(perRank)
					o.logf("fig5 q=%d %s: %.2fs avg I/O per rank", q, sch.label, perRank.Seconds())
				},
			})
		}
	}
	runSweep(o, cells)
	for qi, q := range queries {
		res.Table.AddRow(append([]string{fmt.Sprintf("%d", q)}, vals[qi]...)...)
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
	o = o.forSweep()
	rws := []struct {
		label string
		write bool
	}{{"read", false}, {"write", true}}
	vals := make([][]string, len(rws))
	var cells []Cell
	for ri, rw := range rws {
		vals[ri] = make([]string, len(threeSchemes))
		for si, sch := range threeSchemes {
			cells = append(cells, Cell{
				Key: fmt.Sprintf("table2/%s/%s", rw.label, sch.label),
				Run: func() {
					ms, _ := table2Run(o, rw.write, sch.mode, false)
					vals[ri][si] = mb(aggThroughputMBs(ms))
					o.logf("table2 %s %s: %.1f MB/s", rw.label, sch.label, aggThroughputMBs(ms))
				},
			})
		}
	}
	runSweep(o, cells)
	for ri, rw := range rws {
		res.Table.AddRow(append([]string{rw.label}, vals[ri]...)...)
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
	ms, cl := o.execute(trace, 12*time.Hour, core.DefaultConfig(), []runSpec{
		{prog: mk(0), mode: mode},
		{prog: mk(1), mode: mode},
	})
	return ms, cl
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
	o = o.forSweep()
	schemes := []struct {
		label string
		mode  core.Mode
	}{{"vanilla", core.ModeVanilla}, {"dualpar", core.ModeDataDriven}}
	type out struct {
		series *metrics.Series
		row    []string
	}
	outs := make([]out, len(schemes))
	cells := make([]Cell, len(schemes))
	for i, sch := range schemes {
		cells[i] = Cell{
			Key: "fig6/" + sch.label,
			Run: func() {
				s, row := table2RunTraced(o, sch.mode)
				outs[i] = out{series: s, row: row}
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

// table2RunTraced runs the traced two-instance scenario under one scheme
// and returns the LBN series plus the table row for it.
func table2RunTraced(o Opts, mode core.Mode) (*metrics.Series, []string) {
	size := int64(96 << 20)
	if o.Quick {
		size = 16 << 20
	}
	mk := func(i int) workloads.MPIIOTest {
		m := workloads.DefaultMPIIOTest()
		m.FileBytes = size
		m.FileName = fmt.Sprintf("mpiio-%d.dat", i)
		return m
	}
	ms, cl := o.execute(true, 12*time.Hour, core.DefaultConfig(), []runSpec{
		{prog: mk(0), mode: mode},
		{prog: mk(1), mode: mode},
	})
	tr := cl.Stores[0].Device().Trace()
	// Sample a one-second (or one-third-of-run) window mid-run, like the
	// paper's randomly selected second.
	longest := ms[0].elapsed
	if ms[1].elapsed > longest {
		longest = ms[1].elapsed
	}
	from := longest / 3
	win := time.Second
	if win > longest/3 {
		win = longest / 3
	}
	entries := tr.Window(from, from+win)
	if len(entries) < 2 {
		entries = tr.Entries()
	}
	label := "vanilla"
	if mode == core.ModeDataDriven {
		label = "dualpar"
	}
	s := &metrics.Series{Name: "lbn-" + label}
	for _, e := range entries {
		s.Add(e.At, float64(e.LBN))
	}
	row := []string{label,
		fmt.Sprintf("%d", len(entries)),
		fmt.Sprintf("%.2f", diskMonotonicity(entries)),
		fmt.Sprintf("%.0f", diskMeanSeek(entries))}
	o.logf("fig6 %s: %d accesses, mean seek %.0f sectors", label, len(entries), diskMeanSeek(entries))
	return s, row
}
