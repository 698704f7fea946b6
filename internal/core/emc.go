package core

import (
	"sort"
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/mpiio"
	"dualpar/internal/obs"
)

// emc is the Execution Mode Control daemon (paper §IV-B). Conceptually it
// runs on the metadata server; every slot it gathers
//
//   - aveSeekDist: mean disk seek distance across the data servers'
//     locality daemons (delta over the slot), and
//   - aveReqDist: mean distance between adjacent requests after sorting
//     each program's logged requests by file offset — the best order a
//     data-driven execution could achieve,
//
// and switches a program into data-driven mode when its I/O ratio exceeds
// IORatioThreshold and aveSeekDist/aveReqDist exceeds T_improvement. It
// reverts when the program stops being I/O bound and disables data-driven
// mode for good when the mean mis-prefetch ratio exceeds the threshold.
type emc struct {
	r *Runner

	lastDisk  []disk.Stats
	lastIO    []time.Duration
	lastComp  []time.Duration
	lastBytes []int64
	lastMis   []int     // consumed mis-sample count per program
	lowSlots  []int     // consecutive low-I/O-ratio slots while data-driven
	highSlots []int     // consecutive qualifying slots while computation-driven
	ratioEWMA []float64 // smoothed per-program I/O ratio
	ratioInit []bool    // ratioEWMA seeded with a first sample
	ticking   bool      // a slot tick is scheduled

	// Decisions logs every evaluation for analysis.
	Decisions []Decision
}

// Decision is one per-slot, per-program EMC evaluation.
type Decision struct {
	At          time.Duration
	Program     int
	IORatio     float64
	AveSeekDist float64 // sectors; median of per-server means
	AveReqDist  float64 // sectors
	Improvement float64
	MisRatio    float64
	DataDriven  bool
	// PerServerSeek lists the per-server mean seek distances behind
	// AveSeekDist (servers idle over the slot omitted). Shared by all
	// programs evaluated in the same slot.
	PerServerSeek []float64
}

func newEMC(r *Runner) *emc {
	return &emc{r: r}
}

// initState sizes the per-server and per-program sampling state.
func (e *emc) initState() {
	e.lastDisk = make([]disk.Stats, len(e.r.cl.Stores))
	e.ensure()
}

// ensure grows the per-program state arrays to cover programs added while
// the simulation is running (arrival drivers, closed loops).
func (e *emc) ensure() {
	n := len(e.r.progs)
	for len(e.lastIO) < n {
		e.lastIO = append(e.lastIO, 0)
		e.lastComp = append(e.lastComp, 0)
		e.lastBytes = append(e.lastBytes, 0)
		e.lastMis = append(e.lastMis, 0)
		e.lowSlots = append(e.lowSlots, 0)
		e.highSlots = append(e.highSlots, 0)
		e.ratioEWMA = append(e.ratioEWMA, 0)
		e.ratioInit = append(e.ratioInit, false)
	}
}

// start arms the slot chain. It stops once every program has finished, so
// the simulation can drain; a mid-run Add re-arms it (Runner.Add).
func (e *emc) start() {
	e.initState()
	e.arm()
}

// arm schedules the next slot tick unless one is already pending.
func (e *emc) arm() {
	if e.ticking {
		return
	}
	e.ticking = true
	e.r.cl.K.After(e.r.cfg.SlotEvery, e.tick)
}

func (e *emc) tick() {
	e.ticking = false
	e.slot()
	for _, pr := range e.r.progs {
		if !pr.Done {
			e.arm()
			return
		}
	}
}

// slot is one sampling period.
func (e *emc) slot() {
	e.ensure()
	now := e.r.cl.K.Now()
	aveSeek, perSeek := e.sampleServers()
	// ReqDist is a system-wide metric (§IV-B): the logs of all registered
	// programs are pooled before sorting per file.
	var pooled []mpiio.ReqRecord
	drained := make([][]mpiio.ReqRecord, len(e.r.progs))
	for i, pr := range e.r.progs {
		if pr.Done || now < pr.startAt {
			continue
		}
		drained[i] = pr.instr.DrainLog()
		if pr.mode.EMCManaged() {
			pooled = append(pooled, drained[i]...)
		}
	}
	reqDist := reqDistSectors(pooled)
	improvement := aveSeek / reqDist
	for i, pr := range e.r.progs {
		if pr.Done || now < pr.startAt {
			continue
		}
		// Per-slot I/O ratio from instrumentation deltas.
		var ioT, compT time.Duration
		var bytes int64
		for rnk := range pr.instr.Ranks {
			rs := &pr.instr.Ranks[rnk]
			ioT += rs.IOTime
			compT += rs.ComputeTime
			bytes += rs.Bytes
		}
		dIO, dComp, dBytes := ioT-e.lastIO[i], compT-e.lastComp[i], bytes-e.lastBytes[i]
		e.lastIO[i], e.lastComp[i], e.lastBytes[i] = ioT, compT, bytes
		ioRatio := 0.0
		if dIO+dComp > 0 {
			ioRatio = float64(dIO) / float64(dIO+dComp)
			// A data-driven cycle alternates suspension-heavy and
			// consumption-heavy slots; smoothing keeps single consumption
			// slots from reading as "no longer I/O bound".
			if !e.ratioInit[i] {
				e.ratioInit[i] = true
				e.ratioEWMA[i] = ioRatio
			} else {
				e.ratioEWMA[i] = 0.5*e.ratioEWMA[i] + 0.5*ioRatio
			}
			ioRatio = e.ratioEWMA[i]
		}
		// Per-rank consumption rate feeds the cycle fill deadline.
		if dBytes > 0 {
			perRank := float64(dBytes) / float64(pr.prog.Ranks()) / e.r.cfg.SlotEvery.Seconds()
			pr.recentRankBps = 0.5*pr.recentRankBps + 0.5*perRank
		}

		if !pr.mode.EMCManaged() {
			continue
		}

		// Mis-prefetch: mean of new samples this slot.
		mis, nMis := 0.0, 0
		samples := pr.misSamples
		for _, s := range samples[e.lastMis[i]:] {
			mis += s
			nMis++
		}
		e.lastMis[i] = len(samples)
		if nMis > 0 {
			mis /= float64(nMis)
		}

		if !pr.disabled {
			e.applyDecision(i, pr, dIO+dComp > 0, ioRatio, improvement, mis, nMis)
		}
		e.Decisions = append(e.Decisions, Decision{
			At:            now,
			Program:       i,
			IORatio:       ioRatio,
			AveSeekDist:   aveSeek,
			AveReqDist:    reqDist,
			Improvement:   improvement,
			MisRatio:      mis,
			DataDriven:    pr.dataDriven,
			PerServerSeek: perSeek,
		})
		// The args are formatted eagerly, so skip them when tracing is off.
		if col := e.r.cl.Obs(); col.Enabled() {
			dd := "off"
			if pr.dataDriven {
				dd = "on"
			}
			col.Instant("emc.decision", "emc", now,
				obs.I64("program", int64(i)), obs.F64("io_ratio", ioRatio),
				obs.F64("improvement", improvement), obs.F64("mis_ratio", mis),
				obs.Str("data_driven", dd))
		}
	}
}

// applyDecision runs the mode-switch hysteresis for program i (the switch
// over EMC's evidence, extracted so slot sequences can be driven directly
// in tests). active reports whether the slot saw any instrumented rank
// activity (dIO+dComp > 0); an idle slot — every rank suspended on a cycle
// fill, or a program between phases — carries no evidence in either
// direction and must not reset the consecutive-slot counters.
func (e *emc) applyDecision(i int, pr *ProgramRun, active bool, ioRatio, improvement, mis float64, nMis int) {
	cfg := e.r.cfg
	switch {
	case nMis >= cfg.MisCyclesToDisable && mis > cfg.MisPrefetchThreshold:
		// Too much wasted prefetching: turn data-driven off for
		// good (§IV-C) — a one-time cost for the program. This
		// guard applies even when data-driven mode was forced. A
		// single bad cycle (mode-transition turbulence) is not
		// enough evidence; the PEC fast path uses the same
		// consecutive-cycle rule.
		pr.disabled = true
		pr.setDataDriven(false)
	case pr.mode != ModeDualPar:
		// ModeDataDriven pins the mode on; only the mis-prefetch
		// guard above can turn it off. A pinned program the arbiter
		// denied at Add retries its grant every slot.
		if !pr.dataDriven {
			pr.tryEnterDataDriven()
		}
	case !active:
		// No evidence either way: leave the hysteresis counters alone.
	case !pr.dataDriven && ioRatio > cfg.IORatioThreshold && improvement > cfg.TImprovement:
		// Two consecutive qualifying slots are required: the first
		// slot of a run carries the one-time seek into the file
		// region and must not trip the mode.
		e.highSlots[i]++
		if e.highSlots[i] >= 2 {
			if pr.tryEnterDataDriven() {
				e.highSlots[i] = 0
			} else {
				// Arbiter denial: the program stays eligible and asks
				// again next qualifying slot instead of re-earning its
				// two-slot streak.
				e.highSlots[i] = 2
			}
		}
		e.lowSlots[i] = 0
	case pr.dataDriven && ioRatio < cfg.IORatioThreshold/2:
		// The program stopped being I/O bound. Two consecutive low
		// slots are required before reverting (hysteresis against
		// flapping); the seek-distance condition is not re-checked
		// while data-driven because the improvement it causes would
		// immediately un-trigger it.
		e.lowSlots[i]++
		if e.lowSlots[i] >= 2 {
			pr.setDataDriven(false)
			e.lowSlots[i] = 0
		}
	default:
		e.lowSlots[i] = 0
		e.highSlots[i] = 0
	}
}

// sampleServers returns the per-slot seek-distance signal: the median of
// the per-server mean seek distances (sectors per access) over the last
// slot, plus the per-server means themselves (servers idle over the slot
// omitted). The median makes the aggregate robust to a single straggler:
// one degraded server whose head travel explodes can neither fake a
// system-wide improvement signal nor mask a real one, both of which a
// pooled mean allows.
func (e *emc) sampleServers() (float64, []float64) {
	per := make([]float64, 0, len(e.r.cl.Stores))
	for i, st := range e.r.cl.Stores {
		s := st.Device().Stats()
		d := s.Sub(e.lastDisk[i])
		e.lastDisk[i] = s
		if d.Accesses == 0 {
			continue
		}
		// A crash-stopped server's head is parked, not well-placed: its
		// stale (often zero-seek) sample would drag the median down and
		// fake an improvement signal. The delta above still consumes the
		// window so recovery restarts sampling cleanly.
		if !e.r.cl.FS.Alive(i) {
			continue
		}
		per = append(per, float64(d.SeekSectors)/float64(d.Accesses))
	}
	if len(per) == 0 {
		return 0, nil
	}
	return median(per), per
}

// median returns the middle value of xs (mean of the two middles for even
// length) without mutating it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// reqDistSectors computes aveReqDist: requests are grouped by file, sorted
// by offset, and the mean start-to-start distance of adjacent requests is
// returned in sectors (never below one request's size — the floor of what
// the disk must travel per request even in the perfect order).
func reqDistSectors(records []mpiio.ReqRecord) float64 {
	if len(records) == 0 {
		return 1
	}
	byFile := make(map[string][]mpiio.ReqRecord)
	var files []string
	for _, r := range records {
		if _, ok := byFile[r.File]; !ok {
			files = append(files, r.File)
		}
		byFile[r.File] = append(byFile[r.File], r)
	}
	sort.Strings(files)
	var total float64
	var n int
	for _, f := range files {
		rs := byFile[f]
		sort.Slice(rs, func(i, j int) bool { return rs[i].Ext.Off < rs[j].Ext.Off })
		for i := 1; i < len(rs); i++ {
			d := rs[i].Ext.Off - rs[i-1].Ext.Off
			if d < rs[i-1].Ext.Len {
				d = rs[i-1].Ext.Len // overlapping/duplicate requests
			}
			total += float64(d)
			n++
		}
		if len(rs) == 1 {
			total += float64(rs[0].Ext.Len)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	sectors := total / float64(n) / 512
	if sectors < 1 {
		sectors = 1
	}
	return sectors
}
