package harness

import (
	"fmt"
	"time"

	"dualpar/internal/core"
	"dualpar/internal/metrics"
	"dualpar/internal/workloads"
)

// Fig7 regenerates Figure 7: mpi-io-test runs alone, hpio joins mid-run;
// with DualPar the EMC detects the interference-induced efficiency drop and
// switches both programs to data-driven mode, raising throughput and
// cutting seek distances. The result carries throughput and seek-distance
// time series for vanilla and DualPar runs plus the mode-switch log.
func Fig7(o Opts) *Result {
	res := &Result{
		ID:    "fig7",
		Title: "Fig 7: varying workload — hpio joins a running mpi-io-test",
		Table: &metrics.Table{Header: []string{"scheme", "before_join_MB/s", "after_join_MB/s", "after_seek_sectors", "switched"}},
	}
	res.note("paper: alone ~178 MB/s in both; after hpio joins, vanilla drops from interference while DualPar recovers +46%% and seeks shrink")
	size := int64(192 << 20)
	hpioRegions := int64(3072)
	if o.Quick {
		size = 32 << 20
		hpioRegions = 512
	}
	schemes := []scheme{{"vanilla", core.ModeVanilla}, {"dualpar", core.ModeDualPar}}
	type out struct {
		tp, seek *metrics.Series
		row      []string
	}
	outs := sweep(o, each("fig7/%s", schemes), func(i int) out {
		sch := schemes[i]
		m := workloads.DefaultMPIIOTest()
		m.FileBytes = size
		m.FileName = "fig7-mpiio.dat"
		m.BarrierEvery = 8 // mpi-io-test syncs, but not so often that the scaled run stops being I/O bound
		h := workloads.DefaultHPIO()
		h.RegionCount = hpioRegions
		h.FileName = "fig7-hpio.dat"

		// Estimate the join time as ~40% of the solo run; the paper joins
		// at the 50th second of a ~150 s run. The EMC slot scales with the
		// run so the scaled-down experiment samples as often, relatively,
		// as the paper's 1 s slot did in its ~150 s run.
		soloEstimate := estimateSolo(o, m)
		joinAt := soloEstimate * 2 / 5
		cl := o.cluster(false)
		ddCfg := core.DefaultConfig()
		// Slots must be long enough that the seek/request statistics carry
		// a meaningful sample count (the paper's 1 s slot on a ~150 s run).
		ddCfg.SlotEvery = min(max(soloEstimate/8, 100*time.Millisecond), time.Second)
		// Throughput and seek-distance series sampled during the run.
		window := max(soloEstimate/40, 50*time.Millisecond)
		until := soloEstimate * 4
		var lastBytes int64
		tp := metrics.Sample(cl.K, "throughput-"+sch.label, window, until, func() float64 {
			s := cl.ServerStats()
			cur := s.BytesRead + s.BytesWritten
			d := cur - lastBytes
			lastBytes = cur
			return float64(d) / (1 << 20) / window.Seconds()
		})
		var lastSeek, lastAcc int64
		seek := metrics.Sample(cl.K, "seekdist-"+sch.label, window, until, func() float64 {
			s := cl.ServerStats()
			dSeek, dAcc := s.SeekSectors-lastSeek, s.Accesses-lastAcc
			lastSeek, lastAcc = s.SeekSectors, s.Accesses
			if dAcc == 0 {
				return 0
			}
			return float64(dSeek) / float64(dAcc)
		})
		ms, _ := o.executeOn(cl, 12*time.Hour, ddCfg, []runSpec{
			{prog: m, mode: sch.mode},
			{prog: h, mode: sch.mode, startAt: joinAt},
		})
		p1, p2 := ms[0].run, ms[1].run

		end1 := p1.EndedAt
		before := tp.Window(0, joinAt)
		after := tp.Window(joinAt, end1)
		seekAfter := seek.Window(joinAt, end1)
		switched := len(p1.ModeSwitches)+len(p2.ModeSwitches) > 0
		o.logf("fig7 %s: before=%.1f after=%.1f MB/s, seek=%.0f, switches p1=%d p2=%d (join at %.1fs)",
			sch.label, before, after, seekAfter, len(p1.ModeSwitches), len(p2.ModeSwitches), joinAt.Seconds())
		return out{tp: tp, seek: seek, row: []string{sch.label, mb(before), mb(after),
			fmt.Sprintf("%.0f", seekAfter), fmt.Sprintf("%v", switched)}}
	})
	for _, out := range outs {
		res.Series = append(res.Series, out.tp, out.seek)
		res.Table.AddRow(out.row...)
	}
	return res
}

// estimateSolo measures the mpi-io-test running alone under vanilla; Fig 7
// uses it to place the hpio join and to size sampling windows.
func estimateSolo(o Opts, m workloads.MPIIOTest) time.Duration {
	ms, _ := o.execute(false, 12*time.Hour, core.DefaultConfig(),
		[]runSpec{{prog: m, mode: core.ModeVanilla}})
	return ms[0].elapsed
}

// Fig8 regenerates Figure 8: BTIO throughput as the per-process cache quota
// grows from 0 (DualPar disabled) to 1 MB.
func Fig8(o Opts) *Result {
	res := &Result{
		ID:    "fig8",
		Title: "Fig 8: BTIO system throughput (MB/s) vs per-process cache size",
		Table: &metrics.Table{Header: []string{"cache_kb", "throughput_MBs"}},
	}
	res.note("paper: 0 KB equals vanilla (~2.7 MB/s); 64 KB is ~43x better; returns diminish beyond a few hundred KB")
	b := workloads.DefaultBTIO()
	b.TotalBytes = 8 << 20
	b.Steps = 2
	b.StepCompute = 10 * time.Millisecond
	sizes := []int64{0, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
	if o.Quick {
		b.TotalBytes = 2 << 20
		sizes = []int64{0, 64 << 10, 1 << 20}
	}
	res.Table.Rows = sweep(o, each("fig8/cache=%d", sizes), func(i int) []string {
		cfg := core.DefaultConfig()
		mode := core.ModeDataDriven
		if sizes[i] == 0 {
			mode = core.ModeVanilla // zero quota disables DualPar entirely
		} else {
			cfg.CacheQuotaBytes = sizes[i]
		}
		ms, _ := o.execute(false, 12*time.Hour, cfg, []runSpec{{prog: b, mode: mode}})
		o.logf("fig8 cache=%dKB: %.2f MB/s", sizes[i]>>10, ms[0].throughputMBs())
		return []string{fmt.Sprintf("%d", sizes[i]>>10), mb(ms[0].throughputMBs())}
	})
	return res
}

// Table3 regenerates Table III: the dependent reader whose future requests
// cannot be predicted; DualPar's data-driven mode (initially on) is turned
// off by the mis-prefetch guard, so only a bounded one-time overhead
// remains.
func Table3(o Opts) *Result {
	res := &Result{
		ID:    "table3",
		Title: "Table III: execution time (s) of an unpredictable program, with/without DualPar",
		Table: &metrics.Table{Header: []string{"cache_mb", "no_dualpar_s", "dualpar_s", "overhead_%"}},
	}
	res.note("paper: worst case +7.2%% at 4 MB cache; the mis-prefetch guard makes it a one-time cost")
	// The paper reads 2 GB with data-dependent addresses; the wasted
	// prefetching is a fixed few-cycle cost, so the baseline volume must be
	// kept at paper scale for the overhead percentage to be comparable.
	d := workloads.DefaultDependentReader()
	d.Procs = 16
	d.FileBytes = 2 << 30
	d.CallsPerRank = 2048
	if o.Quick {
		d.Procs = 8
		d.CallsPerRank = 512 // keep the baseline volume large relative to the fixed few-cycle waste
	}
	caches := []int64{1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20}
	if o.Quick {
		caches = []int64{1 << 20, 4 << 20}
	}
	// Cell 0 is the vanilla baseline; the per-cache overheads against it are
	// computed at assembly, after every cell has finished.
	elapsed := sweep(o, append([]string{"table3/base"}, each("table3/cache=%d", caches)...), func(i int) time.Duration {
		cfg := core.DefaultConfig()
		mode := core.ModeVanilla
		if i > 0 {
			cfg.CacheQuotaBytes = caches[i-1]
			cfg.SlotEvery = 250 * time.Millisecond
			mode = core.ModeDataDriven
		}
		ms, _ := o.execute(false, 12*time.Hour, cfg, []runSpec{{prog: d, mode: mode}})
		return ms[0].elapsed
	})
	base := elapsed[0]
	for i, cacheB := range caches {
		dd := elapsed[i+1]
		overhead := (dd.Seconds() - base.Seconds()) / base.Seconds() * 100
		res.Table.AddRow(fmt.Sprintf("%d", cacheB>>20), secs(base), secs(dd),
			fmt.Sprintf("%.1f", overhead))
		o.logf("table3 cache=%dMB: base=%.2fs dualpar=%.2fs (%.1f%%)",
			cacheB>>20, base.Seconds(), dd.Seconds(), overhead)
	}
	return res
}

// Experiments is the experiment registry, in the order `experiments -run
// all` prints them: the paper's figures and tables, then the ablations and
// the robustness sweeps.
// ID is the name `experiments -run` takes.
var Experiments = []struct {
	ID  string
	Run func(Opts) *Result
}{
	{"fig1a", Fig1a}, {"fig1b", Fig1b}, {"fig1cd", Fig1cd},
	{"fig3", Fig3}, {"fig4", Fig4}, {"fig5", Fig5},
	{"table2", Table2}, {"fig6", Fig6}, {"fig7", Fig7}, {"fig8", Fig8}, {"table3", Table3},

	{"ablate-sched", AblateScheduler}, {"ablate-t", AblateTImprovement},
	{"ablate-hole", AblateHoleThreshold}, {"ablate-chunk", AblateChunkSize},
	{"ablate-origins", AblateDiskOrigins}, {"ablate-cb", AblateCollectiveBuffer},
	{"ablate-ssd", AblateSSD}, {"ablate-writepath", AblateWritePath},
	{"ablate-s2window", AblateStrategy2Window}, {"ablate-servers", AblateServers},
	{"ablate-pipeline", AblatePipeline},

	{"straggler", Straggler}, {"availability", Availability},
	{"checkpoint", Checkpoint}, {"multitenant", Multitenant}, {"engines", Engines},
}
