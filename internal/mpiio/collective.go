package mpiio

import (
	"dualpar/internal/ext"
	"dualpar/internal/sim"
)

// ReadExtentsAll is a collective read of an explicit extent list (two-phase
// I/O). All ranks must call it together, each with its own extents.
func (f *File) ReadExtentsAll(p *sim.Proc, rank int, extents []ext.Extent) {
	f.collective(p, rank, extents, false)
}

// WriteExtentsAll is a collective write of an explicit extent list.
func (f *File) WriteExtentsAll(p *sim.Proc, rank int, extents []ext.Extent) {
	f.collective(p, rank, extents, true)
}

// aggInfo describes the file-domain partition of one collective call:
// the accessed span [lo, hi) split into n stripe-aligned domains of per
// bytes (the last one clipped at hi). Aggregator i is rank i*size/a.
type aggInfo struct {
	lo, hi, per int64
	n, a, size  int
}

// rank is aggregator i's rank.
func (ai aggInfo) rank(i int) int { return i * ai.size / ai.a }

// domain is aggregator i's file domain.
func (ai aggInfo) domain(i int) ext.Extent {
	dLo := ai.lo + int64(i)*ai.per
	return ext.Extent{Off: dLo, Len: min(dLo+ai.per, ai.hi) - dLo}
}

// collective implements two-phase I/O: exchange access metadata, partition
// the aggregate range into per-aggregator file domains, move data between
// owners and aggregators with all-to-all, and let aggregators perform large
// contiguous file accesses (with data sieving).
func (f *File) collective(p *sim.Proc, rank int, extents []ext.Extent, write bool) {
	end := f.instr.begin(p, rank)
	myBytes := ext.Total(extents)

	// Phase 0: metadata exchange — every rank learns every extent list.
	// all[r] is rank r's []ext.Extent.
	metaBytes := int64(16*len(extents)) + 64
	all := f.w.AllgatherVals(p, rank, extents, metaBytes)
	lo, hi := int64(-1), int64(-1)
	for _, v := range all {
		for _, e := range v.([]ext.Extent) {
			if e.Len <= 0 {
				continue
			}
			if lo < 0 || e.Off < lo {
				lo = e.Off
			}
			if e.End() > hi {
				hi = e.End()
			}
		}
	}
	if lo < 0 {
		end.finish(p, 0)
		return
	}
	agg := f.partition(lo, hi)
	myAgg := -1
	for i := 0; i < agg.n; i++ {
		if agg.rank(i) == rank {
			myAgg = i
		}
	}

	// Only the aggregator materializes (and merges) the union restricted
	// to its own file domain — never the full union per rank, which would
	// cost O(P * totalExtents) per call. It plans into its own buffer,
	// which it keeps across the blocking aggregatorIO. Off aggregators,
	// needed stays empty and aggregatorIO does nothing.
	var needed []ext.Extent
	if myAgg >= 0 {
		f.plans[rank] = domainPlan(f.plans[rank], all, agg.domain(myAgg))
		needed = f.plans[rank]
	}
	if write {
		// Phase 1 (write): owners ship data to aggregators.
		send := make([]int64, f.w.Size())
		for i := 0; i < agg.n; i++ {
			send[agg.rank(i)] = overlapTotal(extents, agg.domain(i))
		}
		f.w.Alltoallv(p, rank, send)
		// Phase 2: aggregators write their domains.
		f.aggregatorIO(p, rank, needed, true)
		// Collective completion: everyone waits for the aggregators.
		f.w.Barrier(p, rank)
	} else {
		// Phase 1 (read): aggregators read their domains.
		f.aggregatorIO(p, rank, needed, false)
		// Phase 2: aggregators distribute to owners. The exchange's
		// rendezvous also makes consumers wait for aggregator reads.
		send := make([]int64, f.w.Size())
		if myAgg >= 0 {
			for r, v := range all {
				send[r] = overlapTotal(v.([]ext.Extent), agg.domain(myAgg))
			}
		}
		f.w.Alltoallv(p, rank, send)
	}
	end.finish(p, myBytes)
}

// domainPlan returns the union of every rank's extents (all[r] is rank r's
// []ext.Extent) clipped to domain d, in the canonical form ext.Merge gives.
// It builds the union in buf's storage, so once buf has grown to fit, it
// allocates nothing.
func domainPlan(buf []ext.Extent, all []any, d ext.Extent) []ext.Extent {
	if cap(buf) == 0 {
		// A first plan sizes buf exactly instead of by repeated doubling.
		n := 0
		for _, v := range all {
			for _, e := range v.([]ext.Extent) {
				if _, ok := e.Clip(d.Off, d.End()); ok {
					n++
				}
			}
		}
		buf = make([]ext.Extent, 0, n)
	}
	buf = buf[:0]
	for _, v := range all {
		for _, e := range v.([]ext.Extent) {
			if c, ok := e.Clip(d.Off, d.End()); ok {
				buf = append(buf, c)
			}
		}
	}
	return ext.MergeInPlace(buf, 0)
}

// partition splits the accessed span [lo, hi) into stripe-aligned file
// domains, one per aggregator (ROMIO's even partition of [st, end]).
func (f *File) partition(lo, hi int64) aggInfo {
	a := f.aggs
	unit := f.fsys.Config().StripeUnit
	span := hi - lo
	per := (span + int64(a) - 1) / int64(a)
	per = (per + unit - 1) / unit * unit
	// Domains past hi are dropped.
	n := int(min((span+per-1)/per, int64(a)))
	return aggInfo{lo: lo, hi: hi, per: per, n: n, a: a, size: f.w.Size()}
}

// aggregatorIO performs the file access for one aggregator's needed
// extents, staging through the collective buffer: each cycle covers at most
// CollectiveBufferBytes of data, sieved into contiguous accesses.
func (f *File) aggregatorIO(p *sim.Proc, rank int, needed []ext.Extent, write bool) {
	if len(needed) == 0 {
		return
	}
	sieved := ext.MergeWithHoles(needed, f.cfg.DataSieveHole)
	holes := ext.Holes(needed, sieved)
	cl := f.client(rank)
	origin := f.origins[rank]
	rc := f.startRequest(rank)
	start := p.Now()
	verb := "agg-read"
	if write {
		verb = "agg-write"
	}
	// Data sieving on writes requires read-modify-write of the holes.
	if write && len(holes) > 0 {
		f.ioErr(cl.Read(p, f.name, holes, origin, rc))
	}
	for _, batch := range batchBy(sieved, f.cfg.CollectiveBufferBytes) {
		if write {
			f.ioErr(cl.Write(p, f.name, batch, origin, rc))
		} else {
			f.ioErr(cl.Read(p, f.name, batch, origin, rc))
		}
	}
	f.endRequest(p, rc, start, verb, ext.Total(needed), len(needed))
}

// batchBy slices extents into consecutive groups of at most limit total
// bytes (single extents larger than limit are split).
func batchBy(xs []ext.Extent, limit int64) [][]ext.Extent {
	if limit <= 0 {
		return [][]ext.Extent{xs}
	}
	var out [][]ext.Extent
	var cur []ext.Extent
	var curBytes int64
	flush := func() {
		if len(cur) > 0 {
			out = append(out, cur)
			cur = nil
			curBytes = 0
		}
	}
	for _, e := range xs {
		for e.Len > 0 {
			room := limit - curBytes
			if room == 0 {
				flush()
				room = limit
			}
			take := e.Len
			if take > room {
				take = room
			}
			cur = append(cur, ext.Extent{Off: e.Off, Len: take})
			curBytes += take
			e.Off += take
			e.Len -= take
		}
	}
	flush()
	return out
}

// overlapTotal is the byte count of xs ∩ d.
func overlapTotal(xs []ext.Extent, d ext.Extent) int64 {
	var t int64
	for _, e := range xs {
		if c, ok := e.Clip(d.Off, d.End()); ok {
			t += c.Len
		}
	}
	return t
}
