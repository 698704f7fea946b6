package core

import (
	"slices"
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/ext"
	"dualpar/internal/obs"
)

// emc is the Execution Mode Control daemon (paper §IV-B). Conceptually it
// runs on the metadata server; every slot it gathers
//
//   - aveSeekDist: mean disk seek distance across the data servers'
//     locality daemons (delta over the slot), and
//   - aveReqDist: mean distance between adjacent requests after sorting
//     the logged requests of the programs it manages by file offset — the
//     best order a data-driven execution could achieve,
//
// and switches a program into data-driven mode when its I/O ratio exceeds
// ioRatioThreshold and aveSeekDist/aveReqDist exceeds T_improvement. It
// reverts when the program stops being I/O bound and disables data-driven
// mode for good when the mean mis-prefetch ratio exceeds the threshold.
type emc struct {
	r *Runner

	lastDisk []disk.Stats
	pool     fileExtents // this slot's pooled request logs
	ticking  bool        // a slot tick is scheduled

	log decisionLog // every evaluation, for analysis (Runner.EMCDecisions)
}

// emcState is EMC's per-program sampling and hysteresis state, kept on
// the program.
type emcState struct {
	lastIO    time.Duration
	lastComp  time.Duration
	lastBytes int64
	lastMis   int     // consumed mis-sample count
	lowSlots  int     // consecutive low-I/O-ratio slots while data-driven
	highSlots int     // consecutive qualifying slots while computation-driven
	ratioEWMA float64 // smoothed I/O ratio
	ratioInit bool    // ratioEWMA seeded with a first sample
}

// Decision is one per-slot, per-program EMC evaluation, as
// Runner.EMCDecisions expands it from the log.
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

// decisionLog is EMC's evaluation history in compact form. What every
// program evaluated in one slot shares is stored once per slot, and the
// per-program rows fill fixed-size chunks, so the log grows without ever
// copying what it already holds.
type decisionLog struct {
	slots  []slotRecord
	chunks []*[decisionChunk]decisionRow
	n      int // rows logged
}

// decisionChunk is the number of rows per chunk.
const decisionChunk = 1024

// slotRecord holds the fields shared by every row of one slot. A slot is
// recorded only once it has a row.
type slotRecord struct {
	at            time.Duration
	aveSeekDist   float64
	aveReqDist    float64
	improvement   float64
	perServerSeek []float64
	last          int // index of the slot's last row
}

// decisionRow is one program's evaluation within a slot.
type decisionRow struct {
	program    int32
	dataDriven bool
	ioRatio    float64
	misRatio   float64
}

// add appends a row to the most recent slot record.
func (l *decisionLog) add(row decisionRow) {
	if l.n == len(l.chunks)*decisionChunk {
		l.chunks = append(l.chunks, new([decisionChunk]decisionRow))
	}
	l.chunks[l.n/decisionChunk][l.n%decisionChunk] = row
	l.slots[len(l.slots)-1].last = l.n
	l.n++
}

// decisions expands the log into one Decision per row, in logging order.
// The rows of one slot share its PerServerSeek slice.
func (l *decisionLog) decisions() []Decision {
	if l.n == 0 {
		return nil
	}
	out := make([]Decision, 0, l.n)
	i := 0
	for _, s := range l.slots {
		for ; i <= s.last; i++ {
			row := &l.chunks[i/decisionChunk][i%decisionChunk]
			out = append(out, Decision{
				At:            s.at,
				Program:       int(row.program),
				IORatio:       row.ioRatio,
				AveSeekDist:   s.aveSeekDist,
				AveReqDist:    s.aveReqDist,
				Improvement:   s.improvement,
				MisRatio:      row.misRatio,
				DataDriven:    row.dataDriven,
				PerServerSeek: s.perServerSeek,
			})
		}
	}
	return out
}

func newEMC(r *Runner) *emc {
	return &emc{r: r}
}

// start sizes the per-server sampling state and arms the slot chain. The
// chain stops once every program has finished, so the simulation can
// drain; a mid-run Add re-arms it (Runner.Add).
func (e *emc) start() {
	e.lastDisk = make([]disk.Stats, len(e.r.cl.Stores))
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
	now := e.r.cl.K.Now()
	aveSeek, perSeek := e.sampleServers()
	// ReqDist is a system-wide metric (§IV-B): the logs of every running
	// program EMC manages (the only programs that log) are pooled, in
	// program order, before merging per file.
	e.pool.reset()
	for _, pr := range e.r.progs {
		if pr.Done || now < pr.startAt {
			continue
		}
		e.pool.addAll(&pr.log)
		pr.log.reset()
	}
	reqDist := reqDistSectors(&e.pool, &e.r.merge)
	improvement := aveSeek / reqDist
	opened := false // this slot's shared record is in the log
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
		st := &pr.emc
		dIO, dComp, dBytes := ioT-st.lastIO, compT-st.lastComp, bytes-st.lastBytes
		st.lastIO, st.lastComp, st.lastBytes = ioT, compT, bytes
		ioRatio := 0.0
		if dIO+dComp > 0 {
			ioRatio = float64(dIO) / float64(dIO+dComp)
			// A data-driven cycle alternates suspension-heavy and
			// consumption-heavy slots; smoothing keeps single consumption
			// slots from reading as "no longer I/O bound".
			if !st.ratioInit {
				st.ratioInit = true
				st.ratioEWMA = ioRatio
			} else {
				st.ratioEWMA = 0.5*st.ratioEWMA + 0.5*ioRatio
			}
			ioRatio = st.ratioEWMA
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
		for _, s := range samples[st.lastMis:] {
			mis += s
			nMis++
		}
		st.lastMis = len(samples)
		if nMis > 0 {
			mis /= float64(nMis)
		}

		if !pr.disabled {
			e.applyDecision(pr, dIO+dComp > 0, ioRatio, improvement, mis, nMis)
		}
		if !opened {
			opened = true
			e.log.slots = append(e.log.slots, slotRecord{
				at: now, aveSeekDist: aveSeek, aveReqDist: reqDist,
				improvement: improvement, perServerSeek: perSeek,
			})
		}
		e.log.add(decisionRow{program: int32(i), dataDriven: pr.dataDriven,
			ioRatio: ioRatio, misRatio: mis})
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

// applyDecision runs the mode-switch hysteresis for one program (the switch
// over EMC's evidence, extracted so slot sequences can be driven directly
// in tests). active reports whether the slot saw any instrumented rank
// activity (dIO+dComp > 0); an idle slot — every rank suspended on a cycle
// fill, or a program between phases — carries no evidence in either
// direction and must not reset the consecutive-slot counters.
func (e *emc) applyDecision(pr *ProgramRun, active bool, ioRatio, improvement, mis float64, nMis int) {
	cfg := e.r.cfg
	st := &pr.emc
	switch {
	case nMis >= misCyclesToDisable && mis > cfg.MisPrefetchThreshold:
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
	case !pr.dataDriven && ioRatio > ioRatioThreshold && improvement > cfg.TImprovement:
		// Two consecutive qualifying slots are required: the first
		// slot of a run carries the one-time seek into the file
		// region and must not trip the mode.
		st.highSlots++
		if st.highSlots >= 2 {
			if pr.tryEnterDataDriven() {
				st.highSlots = 0
			} else {
				// Arbiter denial: the program stays eligible and asks
				// again next qualifying slot instead of re-earning its
				// two-slot streak.
				st.highSlots = 2
			}
		}
		st.lowSlots = 0
	case pr.dataDriven && ioRatio < ioRatioThreshold/2:
		// The program stopped being I/O bound. Two consecutive low
		// slots are required before reverting (hysteresis against
		// flapping); the seek-distance condition is not re-checked
		// while data-driven because the improvement it causes would
		// immediately un-trigger it.
		st.lowSlots++
		if st.lowSlots >= 2 {
			pr.setDataDriven(false)
			st.lowSlots = 0
		}
	default:
		st.lowSlots = 0
		st.highSlots = 0
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
	var per []float64 // allocated on the first sample; the log keeps it
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
		if per == nil {
			per = make([]float64, 0, len(e.r.cl.Stores))
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
	var buf [16]float64
	s := append(buf[:0], xs...)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// reqDistSectors computes aveReqDist: each file's requests are merged in
// (offset, length) order, and the mean start-to-start distance of adjacent
// requests is returned in sectors (never below one request's size — the
// floor of what the disk must travel per request even in the perfect
// order). Ordering ties by length makes the result a function of the
// pooled requests alone, not of the order they were logged in. It sorts
// the list's files in place and reads the extents through m.
func reqDistSectors(reqs *fileExtents, m *ext.Merger) float64 {
	slices.Sort(reqs.files)
	var total float64
	var n int
	for _, f := range reqs.files {
		m.Reset(reqs.byFile[f])
		prev, _ := m.Next() // a listed file has a non-empty extent
		single := true
		for e, ok := m.Next(); ok; e, ok = m.Next() {
			// Overlapping/duplicate requests travel at least a request.
			total += float64(max(e.Off-prev.Off, prev.Len))
			n++
			prev, single = e, false
		}
		if single {
			total += float64(prev.Len)
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
