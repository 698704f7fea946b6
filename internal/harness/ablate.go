package harness

import (
	"fmt"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/disk"
	"dualpar/internal/iosched"
	"dualpar/internal/metrics"
	"dualpar/internal/mpiio"
	"dualpar/internal/pfs"
	"dualpar/internal/workloads"
)

// AblateScheduler compares the kernel disk schedulers under vanilla and
// DualPar execution: DualPar's benefit must not depend on CFQ specifically,
// since the reordering happens above the block layer.
func AblateScheduler(o Opts) *Result {
	res := &Result{
		ID:    "ablate-sched",
		Title: "Ablation: I/O scheduler choice (mpi-io-test read, MB/s)",
		Table: &metrics.Table{Header: []string{"scheduler", "vanilla", "dualpar"}},
	}
	size := int64(64 << 20)
	if o.Quick {
		size = 16 << 20
	}
	for _, sched := range []string{"cfq", "deadline", "noop"} {
		row := []string{sched}
		for _, mode := range []core.Mode{core.ModeVanilla, core.ModeDataDriven} {
			ccfg := o.config()
			ccfg.NewScheduler = iosched.Named(sched)
			cl := cluster.New(ccfg)
			r := core.NewRunner(cl, core.DefaultConfig())
			m := workloads.DefaultMPIIOTest()
			m.FileBytes = size
			pr := r.Add(m, mode, core.AddOptions{RanksPerNode: 8})
			r.Run(time.Hour)
			row = append(row, mb(float64(pr.Instr().TotalBytes())/(1<<20)/pr.Elapsed().Seconds()))
		}
		res.Table.AddRow(row...)
		o.logf("ablate-sched %s: %v", sched, row)
	}
	return res
}

// AblateTImprovement sweeps the T_improvement threshold through the Fig 7
// interference scenario, checking the paper's claim that performance is not
// sensitive to the threshold: any value inside the wide gap between the
// healthy-stream improvement (~4) and the interference improvement (>15)
// behaves identically.
func AblateTImprovement(o Opts) *Result {
	res := &Result{
		ID:    "ablate-t",
		Title: "Ablation: T_improvement sensitivity (Fig 7 scenario)",
		Table: &metrics.Table{Header: []string{"T", "switched", "finish_s"}},
	}
	res.note("paper: \"system performance is not sensitive to this threshold\" (default 3 there, 8 here)")
	size := int64(96 << 20)
	regions := int64(1536)
	if o.Quick {
		size = 48 << 20
		regions = 768
	}
	for _, tval := range []float64{2, 5, 8, 12, 16, 64} {
		m := workloads.DefaultMPIIOTest()
		m.FileBytes = size
		m.FileName = "ablt-mpiio.dat"
		m.BarrierEvery = 8
		h := workloads.DefaultHPIO()
		h.RegionCount = regions
		h.FileName = "ablt-hpio.dat"
		cl := o.cluster(false)
		cfg := core.DefaultConfig()
		cfg.TImprovement = tval
		cfg.SlotEvery = 100 * time.Millisecond
		r := core.NewRunner(cl, cfg)
		p1 := r.Add(m, core.ModeDualPar, core.AddOptions{RanksPerNode: 8})
		p2 := r.Add(h, core.ModeDualPar, core.AddOptions{RanksPerNode: 8, StartAt: 300 * time.Millisecond})
		r.Run(time.Hour)
		switched := len(p1.ModeSwitches)+len(p2.ModeSwitches) > 0
		finish := p1.EndedAt
		if p2.EndedAt > finish {
			finish = p2.EndedAt
		}
		res.Table.AddRow(fmt.Sprintf("%.0f", tval), fmt.Sprintf("%v", switched), secs(finish))
		o.logf("ablate-t T=%.0f switched=%v finish=%.2fs", tval, switched, finish.Seconds())
	}
	return res
}

// AblateHoleThreshold sweeps CRM's hole-filling threshold on hpio, whose
// inter-region spacing leaves genuine unrequested holes in the batch:
// absorbing them builds larger requests (paper §IV-D) at the cost of
// fetching unwanted bytes; a zero threshold leaves the batch fragmented.
// The global cache's chunk alignment also absorbs sub-chunk holes, so the
// effect shows in the disk access count more than in bytes.
func AblateHoleThreshold(o Opts) *Result {
	res := &Result{
		ID:    "ablate-hole",
		Title: "Ablation: CRM hole-filling threshold (hpio, 4KB regions / 4KB gaps)",
		Table: &metrics.Table{Header: []string{"hole_kb", "elapsed_s", "disk_accesses", "read_MB"}},
	}
	h := workloads.DefaultHPIO()
	h.RegionBytes = 4 << 10
	h.RegionSpacing = 4 << 10
	h.RegionCount = 8192
	if o.Quick {
		h.RegionCount = 2048
	}
	for _, hole := range []int64{0, 4 << 10, 32 << 10, 256 << 10} {
		cl := o.cluster(false)
		cfg := core.DefaultConfig()
		cfg.HoleBytes = hole
		// Sub-chunk caching isolates the hole-filling effect from chunk
		// alignment.
		cfg.Memcache.ChunkBytes = 4 << 10
		r := core.NewRunner(cl, cfg)
		pr := r.Add(h, core.ModeDataDriven, core.AddOptions{RanksPerNode: 8})
		r.Run(time.Hour)
		st := cl.ServerStats()
		res.Table.AddRow(fmt.Sprintf("%d", hole>>10), secs(pr.Elapsed()),
			fmt.Sprintf("%d", st.Accesses), fmt.Sprintf("%.1f", float64(st.BytesRead)/(1<<20)))
		o.logf("ablate-hole %dKB: %.3fs, %d accesses, %.1fMB", hole>>10, pr.Elapsed().Seconds(), st.Accesses, float64(st.BytesRead)/(1<<20))
	}
	return res
}

// AblateChunkSize sweeps the global cache's chunk size around the PVFS2
// stripe unit (the paper pins it to 64 KB so one chunk maps to one server).
func AblateChunkSize(o Opts) *Result {
	res := &Result{
		ID:    "ablate-chunk",
		Title: "Ablation: global-cache chunk size (mpi-io-test read)",
		Table: &metrics.Table{Header: []string{"chunk_kb", "throughput_MBs"}},
	}
	m := workloads.DefaultMPIIOTest()
	m.FileBytes = 64 << 20
	if o.Quick {
		m.FileBytes = 16 << 20
	}
	for _, chunk := range []int64{16 << 10, 64 << 10, 256 << 10} {
		cfg := core.DefaultConfig()
		cfg.Memcache.ChunkBytes = chunk
		ms, _ := o.execute(false, time.Hour, cfg,
			[]runSpec{{prog: m, mode: core.ModeDataDriven}})
		res.Table.AddRow(fmt.Sprintf("%d", chunk>>10), mb(ms[0].throughputMBs()))
		o.logf("ablate-chunk %dKB: %.1f MB/s", chunk>>10, ms[0].throughputMBs())
	}
	return res
}

// AblateDiskOrigins contrasts the realistic server-process disk origin with
// per-client origins: with per-client origins CFQ anticipates each client's
// next synchronous request and vanilla throughput collapses, which is why
// the substrate models PVFS2's single server process as the origin.
func AblateDiskOrigins(o Opts) *Result {
	res := &Result{
		ID:    "ablate-origins",
		Title: "Ablation: CFQ origin attribution (mpi-io-test vanilla read)",
		Table: &metrics.Table{Header: []string{"origin", "throughput_MBs"}},
	}
	m := workloads.DefaultMPIIOTest()
	m.FileBytes = 32 << 20
	if o.Quick {
		m.FileBytes = 8 << 20
	}
	for _, client := range []bool{false, true} {
		ccfg := o.config()
		pcfg := pfs.DefaultConfig()
		pcfg.ClientDiskOrigins = client
		ccfg.PFS = pcfg
		cl := cluster.New(ccfg)
		r := core.NewRunner(cl, core.DefaultConfig())
		pr := r.Add(m, core.ModeVanilla, core.AddOptions{RanksPerNode: 8})
		r.Run(time.Hour)
		label := "server-process"
		if client {
			label = "per-client"
		}
		res.Table.AddRow(label, mb(float64(pr.Instr().TotalBytes())/(1<<20)/pr.Elapsed().Seconds()))
		o.logf("ablate-origins %s: %.1f MB/s", label, float64(pr.Instr().TotalBytes())/(1<<20)/pr.Elapsed().Seconds())
	}
	return res
}

// AblateCollectiveBuffer sweeps ROMIO's cb_buffer_size on noncontig.
func AblateCollectiveBuffer(o Opts) *Result {
	res := &Result{
		ID:    "ablate-cb",
		Title: "Ablation: collective buffer size (noncontig read)",
		Table: &metrics.Table{Header: []string{"cb_mb", "throughput_MBs"}},
	}
	n := workloads.DefaultNoncontig()
	n.FileBytes = 64 << 20
	if o.Quick {
		n.FileBytes = 16 << 20
	}
	for _, cb := range []int64{1 << 20, 4 << 20, 16 << 20} {
		mcfg := mpiio.DefaultConfig()
		mcfg.CollectiveBufferBytes = cb
		ms, _ := o.execute(false, time.Hour, core.DefaultConfig(),
			[]runSpec{{prog: n, mode: core.ModeCollective, mpiio: mcfg}})
		res.Table.AddRow(fmt.Sprintf("%d", cb>>20), mb(ms[0].throughputMBs()))
		o.logf("ablate-cb %dMB: %.1f MB/s", cb>>20, ms[0].throughputMBs())
	}
	return res
}

// AblateSSD replays the Fig 3 mpi-io-test comparison on flash storage: with
// no positioning cost, the disk-efficiency gap DualPar exploits disappears
// and the data-driven mode's advantage collapses toward its batching side
// effects — quantifying how disk-era the paper's premise is.
func AblateSSD(o Opts) *Result {
	res := &Result{
		ID:    "ablate-ssd",
		Title: "Ablation: rotating disks vs SSD (mpi-io-test read, MB/s)",
		Table: &metrics.Table{Header: []string{"storage", "vanilla", "dualpar", "speedup"}},
	}
	res.note("DualPar's win comes from seek elimination; on an SSD the two request orders cost the same")
	size := int64(64 << 20)
	if o.Quick {
		size = 16 << 20
	}
	for _, storage := range []string{"disk", "ssd"} {
		vals := make([]float64, 0, 2)
		for _, mode := range []core.Mode{core.ModeVanilla, core.ModeDataDriven} {
			ccfg := o.config()
			if storage == "ssd" {
				sp := disk.DefaultSSDParams()
				ccfg.SSD = &sp
			}
			cl := cluster.New(ccfg)
			r := core.NewRunner(cl, core.DefaultConfig())
			m := workloads.DefaultMPIIOTest()
			m.FileBytes = size
			pr := r.Add(m, mode, core.AddOptions{RanksPerNode: 8})
			r.Run(time.Hour)
			vals = append(vals, float64(pr.Instr().TotalBytes())/(1<<20)/pr.Elapsed().Seconds())
		}
		res.Table.AddRow(storage, mb(vals[0]), mb(vals[1]), fmt.Sprintf("%.2fx", vals[1]/vals[0]))
		o.logf("ablate-ssd %s: vanilla %.1f dualpar %.1f", storage, vals[0], vals[1])
	}
	return res
}

// Ablations runs every ablation.
func Ablations(o Opts) []*Result {
	return []*Result{
		AblateScheduler(o), AblateTImprovement(o), AblateHoleThreshold(o),
		AblateChunkSize(o), AblateDiskOrigins(o), AblateCollectiveBuffer(o),
		AblateSSD(o), AblateWritePath(o), AblateStrategy2Window(o),
		AblateServers(o), AblatePipeline(o),
	}
}

// AblateWritePath contrasts PVFS2's per-operation data sync (Trove-style,
// the default substrate model) with buffered server writeback (dirty pages
// flushed every second, as the paper forces) on the mpi-io-test write
// workload.
func AblateWritePath(o Opts) *Result {
	res := &Result{
		ID:    "ablate-writepath",
		Title: "Ablation: server write path (mpi-io-test write, MB/s)",
		Table: &metrics.Table{Header: []string{"write_path", "vanilla", "dualpar"}},
	}
	res.note("sync per op models PVFS2 Trove; buffered models a 1s-flush page cache")
	size := int64(48 << 20)
	if o.Quick {
		size = 16 << 20
	}
	for _, sync := range []bool{true, false} {
		row := []string{"sync-per-op"}
		if !sync {
			row = []string{"buffered-1s"}
		}
		for _, mode := range []core.Mode{core.ModeVanilla, core.ModeDataDriven} {
			ccfg := o.config()
			fcfg := ccfg.FS
			fcfg.SyncWrites = sync
			ccfg.FS = fcfg
			cl := cluster.New(ccfg)
			r := core.NewRunner(cl, core.DefaultConfig())
			m := workloads.DefaultMPIIOTest()
			m.FileBytes = size
			m.Write = true
			pr := r.Add(m, mode, core.AddOptions{RanksPerNode: 8})
			if !r.Run(time.Hour) {
				o.logf("ablate-writepath: run did not finish")
			}
			row = append(row, mb(float64(pr.Instr().TotalBytes())/(1<<20)/pr.Elapsed().Seconds()))
		}
		res.Table.AddRow(row...)
		o.logf("ablate-writepath %s: %v", row[0], row[1:])
	}
	return res
}

// AblateStrategy2Window sweeps how far ahead the Strategy-2 prefetcher may
// run: too small and it cannot hide I/O, too large only wastes memory.
func AblateStrategy2Window(o Opts) *Result {
	res := &Result{
		ID:    "ablate-s2window",
		Title: "Ablation: Strategy-2 prefetch window (demo, 10ms compute/call)",
		Table: &metrics.Table{Header: []string{"window_kb", "elapsed_s"}},
	}
	d := workloads.DefaultDemo()
	d.FileBytes = 32 << 20
	d.ComputePerCall = 10 * time.Millisecond
	if o.Quick {
		d.FileBytes = 16 << 20
	}
	// Per-rank window = value / procs; at 4 KB per rank the prefetcher can
	// keep only one request in flight and hiding collapses.
	for _, window := range []int64{32 << 10, 256 << 10, 4 << 20, 32 << 20} {
		cfg := core.DefaultConfig()
		cfg.Strategy2WindowBytes = window
		ms, _ := o.execute(false, time.Hour, cfg,
			[]runSpec{{prog: d, mode: core.ModeStrategy2}})
		res.Table.AddRow(fmt.Sprintf("%d", window>>10), secs(ms[0].elapsed))
		o.logf("ablate-s2window %dKB: %.2fs", window>>10, ms[0].elapsed.Seconds())
	}
	return res
}

// AblateServers sweeps the data-server count: DualPar's benefit holds as
// the stripe width grows, and both schemes gain from added spindles until
// the client-side network bounds them.
func AblateServers(o Opts) *Result {
	res := &Result{
		ID:    "ablate-servers",
		Title: "Ablation: data-server count (mpi-io-test read, MB/s)",
		Table: &metrics.Table{Header: []string{"servers", "vanilla", "dualpar", "speedup"}},
	}
	size := int64(64 << 20)
	if o.Quick {
		size = 16 << 20
	}
	for _, servers := range []int{3, 6, 9, 18} {
		vals := make([]float64, 0, 2)
		for _, mode := range []core.Mode{core.ModeVanilla, core.ModeDataDriven} {
			ccfg := o.config()
			ccfg.DataServers = servers
			cl := cluster.New(ccfg)
			r := core.NewRunner(cl, core.DefaultConfig())
			m := workloads.DefaultMPIIOTest()
			m.FileBytes = size
			pr := r.Add(m, mode, core.AddOptions{RanksPerNode: 8})
			r.Run(time.Hour)
			vals = append(vals, float64(pr.Instr().TotalBytes())/(1<<20)/pr.Elapsed().Seconds())
		}
		res.Table.AddRow(fmt.Sprintf("%d", servers), mb(vals[0]), mb(vals[1]),
			fmt.Sprintf("%.2fx", vals[1]/vals[0]))
		o.logf("ablate-servers %d: vanilla %.1f dualpar %.1f", servers, vals[0], vals[1])
	}
	return res
}

// AblatePipeline evaluates the pipelined-cycles extension (beyond the
// paper): ghosts record PipelineDepth x quota and the overflow wave is
// prefetched while ranks consume, adding Strategy 2's overlap to
// Strategy 3's ordering. Measured on the demo at a mid I/O ratio, where
// plain data-driven execution loses time to its unoverlapped cycles.
func AblatePipeline(o Opts) *Result {
	res := &Result{
		ID:    "ablate-pipeline",
		Title: "Ablation (extension): pipelined data-driven cycles (demo, ~70% I/O ratio)",
		Table: &metrics.Table{Header: []string{"scheme", "elapsed_s"}},
	}
	d := workloads.DefaultDemo()
	d.FileBytes = 32 << 20
	if o.Quick {
		d.FileBytes = 16 << 20
	}
	// Calibrate ~70% I/O ratio against the vanilla run.
	probe, _ := o.execute(false, time.Hour, core.DefaultConfig(),
		[]runSpec{{prog: d, mode: core.ModeVanilla}})
	calls := d.Calls()
	ioPerCall := probe[0].elapsed / time.Duration(calls)
	d.ComputePerCall = time.Duration(float64(ioPerCall) * 0.3 / 0.7)

	rows := []struct {
		label string
		mode  core.Mode
		depth int
	}{
		{"vanilla", core.ModeVanilla, 1},
		{"strategy2", core.ModeStrategy2, 1},
		{"data-driven (paper)", core.ModeDataDriven, 1},
		{"data-driven pipelined x2", core.ModeDataDriven, 2},
		{"data-driven pipelined x4", core.ModeDataDriven, 4},
	}
	for _, row := range rows {
		cfg := core.DefaultConfig()
		cfg.PipelineDepth = row.depth
		ms, _ := o.execute(false, time.Hour, cfg,
			[]runSpec{{prog: d, mode: row.mode}})
		res.Table.AddRow(row.label, secs(ms[0].elapsed))
		o.logf("ablate-pipeline %s: %.2fs", row.label, ms[0].elapsed.Seconds())
	}
	return res
}
