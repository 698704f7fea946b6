package harness

import (
	"fmt"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/core"
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
	scheds := []string{"cfq", "deadline", "noop"}
	ns := len(twoSchemes)
	tps := sweep(o, grid("ablate-sched", scheds, each("%s", twoSchemes)), func(i int) float64 {
		ccfg := o.config()
		ccfg.NewScheduler = iosched.Named(scheds[i/ns])
		return o.mpiioTest("ablate-sched "+scheds[i/ns], ccfg, size, false, twoSchemes[i%ns].mode).throughputMBs()
	})
	for si, sched := range scheds {
		row := []string{sched, mb(tps[si*ns]), mb(tps[si*ns+1])}
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
	m := workloads.DefaultMPIIOTest()
	m.FileBytes = size
	m.FileName = "ablt-mpiio.dat"
	m.BarrierEvery = 8
	h := workloads.DefaultHPIO()
	h.RegionCount = regions
	h.FileName = "ablt-hpio.dat"
	tvals := []float64{2, 5, 8, 12, 16, 64}
	res.Table.Rows = sweep(o, each("ablate-t/T=%.0f", tvals), func(i int) []string {
		cfg := core.DefaultConfig()
		cfg.TImprovement = tvals[i]
		cfg.SlotEvery = 100 * time.Millisecond
		ms, _ := o.execute(false, time.Hour, cfg, []runSpec{
			{prog: m, mode: core.ModeDualPar},
			{prog: h, mode: core.ModeDualPar, startAt: 300 * time.Millisecond},
		})
		p1, p2 := ms[0].run, ms[1].run
		switched := len(p1.ModeSwitches)+len(p2.ModeSwitches) > 0
		finish := max(p1.EndedAt, p2.EndedAt)
		o.logf("ablate-t T=%.0f switched=%v finish=%.2fs", tvals[i], switched, finish.Seconds())
		return []string{fmt.Sprintf("%.0f", tvals[i]), fmt.Sprintf("%v", switched), secs(finish)}
	})
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
	holes := []int64{0, 4 << 10, 32 << 10, 256 << 10}
	res.Table.Rows = sweep(o, each("ablate-hole/%d", holes), func(i int) []string {
		hole := holes[i]
		cfg := core.DefaultConfig()
		cfg.HoleBytes = hole
		// Sub-chunk caching isolates the hole-filling effect from chunk
		// alignment.
		cfg.Memcache.ChunkBytes = 4 << 10
		ms, cl := o.execute(false, time.Hour, cfg, []runSpec{{prog: h, mode: core.ModeDataDriven}})
		st := cl.ServerStats()
		o.logf("ablate-hole %dKB: %.3fs, %d accesses, %.1fMB", hole>>10, ms[0].elapsed.Seconds(), st.Accesses, float64(st.BytesRead)/(1<<20))
		return []string{fmt.Sprintf("%d", hole>>10), secs(ms[0].elapsed),
			fmt.Sprintf("%d", st.Accesses), fmt.Sprintf("%.1f", float64(st.BytesRead)/(1<<20))}
	})
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
	chunks := []int64{16 << 10, 64 << 10, 256 << 10}
	res.Table.Rows = sweep(o, each("ablate-chunk/%d", chunks), func(i int) []string {
		cfg := core.DefaultConfig()
		cfg.Memcache.ChunkBytes = chunks[i]
		ms, _ := o.execute(false, time.Hour, cfg,
			[]runSpec{{prog: m, mode: core.ModeDataDriven}})
		o.logf("ablate-chunk %dKB: %.1f MB/s", chunks[i]>>10, ms[0].throughputMBs())
		return []string{fmt.Sprintf("%d", chunks[i]>>10), mb(ms[0].throughputMBs())}
	})
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
	size := int64(32 << 20)
	if o.Quick {
		size = 8 << 20
	}
	labels := []string{"server-process", "per-client"}
	res.Table.Rows = sweep(o, each("ablate-origins/%s", labels), func(i int) []string {
		ccfg := o.config()
		ccfg.PFS = pfs.DefaultConfig()
		ccfg.PFS.ClientDiskOrigins = i == 1
		tp := o.mpiioTest("ablate-origins "+labels[i], ccfg, size, false, core.ModeVanilla).throughputMBs()
		o.logf("ablate-origins %s: %.1f MB/s", labels[i], tp)
		return []string{labels[i], mb(tp)}
	})
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
	cbs := []int64{1 << 20, 4 << 20, 16 << 20}
	res.Table.Rows = sweep(o, each("ablate-cb/%d", cbs), func(i int) []string {
		mcfg := mpiio.DefaultConfig()
		mcfg.CollectiveBufferBytes = cbs[i]
		ms, _ := o.execute(false, time.Hour, core.DefaultConfig(),
			[]runSpec{{prog: n, mode: core.ModeCollective, mpiio: mcfg}})
		o.logf("ablate-cb %dMB: %.1f MB/s", cbs[i]>>20, ms[0].throughputMBs())
		return []string{fmt.Sprintf("%d", cbs[i]>>20), mb(ms[0].throughputMBs())}
	})
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
	storages := []string{"disk", "ssd"}
	ns := len(twoSchemes)
	tps := sweep(o, grid("ablate-ssd", storages, each("%s", twoSchemes)), func(i int) float64 {
		ccfg := o.config()
		if storages[i/ns] == "ssd" {
			ccfg.SSD = true
		}
		return o.mpiioTest("ablate-ssd "+storages[i/ns], ccfg, size, false, twoSchemes[i%ns].mode).throughputMBs()
	})
	for si, storage := range storages {
		van, dd := tps[si*ns], tps[si*ns+1]
		res.Table.AddRow(storage, mb(van), mb(dd), fmt.Sprintf("%.2fx", dd/van))
		o.logf("ablate-ssd %s: vanilla %.1f dualpar %.1f", storage, van, dd)
	}
	return res
}

// mpiioTest runs one mpi-io-test of size bytes (a write test if write) in
// mode on a cluster built from ccfg. A run that does not finish within its
// budget panics, naming cell, instead of reporting a throughput of zero.
func (o Opts) mpiioTest(cell string, ccfg cluster.Config, size int64, write bool, mode core.Mode) measured {
	m := workloads.DefaultMPIIOTest()
	m.FileBytes = size
	m.Write = write
	const budget = time.Hour
	ms, _ := o.executeOn(cluster.New(ccfg), budget, core.DefaultConfig(), []runSpec{{prog: m, mode: mode}})
	if !ms[0].finished {
		panic(fmt.Sprintf("harness: %s: mpi-io-test (write=%v, %d MB, %s) did not finish within %v",
			cell, write, size>>20, mode, budget))
	}
	return ms[0]
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
	paths := []string{"sync-per-op", "buffered-1s"}
	ns := len(twoSchemes)
	tps := sweep(o, grid("ablate-writepath", paths, each("%s", twoSchemes)), func(i int) float64 {
		ccfg := o.config()
		ccfg.FS.SyncWrites = i/ns == 0
		return o.mpiioTest("ablate-writepath "+paths[i/ns], ccfg, size, true, twoSchemes[i%ns].mode).throughputMBs()
	})
	for pi, path := range paths {
		row := []string{path, mb(tps[pi*ns]), mb(tps[pi*ns+1])}
		res.Table.AddRow(row...)
		o.logf("ablate-writepath %s: %v", path, row[1:])
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
	windows := []int64{32 << 10, 256 << 10, 4 << 20, 32 << 20}
	res.Table.Rows = sweep(o, each("ablate-s2window/%d", windows), func(i int) []string {
		cfg := core.DefaultConfig()
		cfg.Strategy2WindowBytes = windows[i]
		ms, _ := o.execute(false, time.Hour, cfg,
			[]runSpec{{prog: d, mode: core.ModeStrategy2}})
		o.logf("ablate-s2window %dKB: %.2fs", windows[i]>>10, ms[0].elapsed.Seconds())
		return []string{fmt.Sprintf("%d", windows[i]>>10), secs(ms[0].elapsed)}
	})
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
	counts := []int{3, 6, 9, 18}
	ns := len(twoSchemes)
	tps := sweep(o, grid("ablate-servers", each("%d", counts), each("%s", twoSchemes)), func(i int) float64 {
		ccfg := o.config()
		ccfg.DataServers = counts[i/ns]
		return o.mpiioTest(fmt.Sprintf("ablate-servers %d", counts[i/ns]), ccfg, size, false, twoSchemes[i%ns].mode).throughputMBs()
	})
	for ci, servers := range counts {
		van, dd := tps[ci*ns], tps[ci*ns+1]
		res.Table.AddRow(fmt.Sprintf("%d", servers), mb(van), mb(dd), fmt.Sprintf("%.2fx", dd/van))
		o.logf("ablate-servers %d: vanilla %.1f dualpar %.1f", servers, van, dd)
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
	// Calibrate ~70% I/O ratio against the vanilla run. The probe is shared
	// by every cell, so it runs before the sweep.
	probe, _ := o.execute(false, time.Hour, core.DefaultConfig(),
		[]runSpec{{prog: d, mode: core.ModeVanilla}})
	ioPerCall := probe[0].elapsed / time.Duration(d.Calls())
	d.ComputePerCall = time.Duration(float64(ioPerCall) * 0.3 / 0.7)

	schemes := []scheme{
		{"vanilla", core.ModeVanilla},
		{"strategy2", core.ModeStrategy2},
		{"data-driven (paper)", core.ModeDataDriven},
		{"data-driven pipelined x2", core.ModeDataDriven},
		{"data-driven pipelined x4", core.ModeDataDriven},
	}
	depths := []int{1, 1, 1, 2, 4}
	res.Table.Rows = sweep(o, each("ablate-pipeline/%s", schemes), func(i int) []string {
		cfg := core.DefaultConfig()
		cfg.PipelineDepth = depths[i]
		ms, _ := o.execute(false, time.Hour, cfg,
			[]runSpec{{prog: d, mode: schemes[i].mode}})
		o.logf("ablate-pipeline %s: %.2fs", schemes[i].label, ms[0].elapsed.Seconds())
		return []string{schemes[i].label, secs(ms[0].elapsed)}
	})
	return res
}
