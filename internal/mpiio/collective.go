package mpiio

import (
	"sort"

	"dualpar/internal/ext"
	"dualpar/internal/pfs"
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

// collective implements two-phase I/O in ROMIO's shape: each rank
// summarises its own list (ADIOI_Calc_my_off_len) before the metadata
// exchange, the span comes from the summaries, the aggregate range is
// partitioned into per-aggregator file domains, each aggregator merges
// every rank's sorted window over its domain, data moves between owners and
// aggregators with all-to-all (ADIOI_Calc_others_req's counts), and
// aggregators perform large contiguous file accesses (with data sieving).
func (f *File) collective(p *sim.Proc, rank int, extents []ext.Extent, write bool) {
	end := f.instr.begin(p, rank)

	// Phase 0: metadata exchange. Each rank hands out a pointer to its
	// summary (nil for an empty list); all[r] is rank r's. The others read
	// r's summary before they enter this call's all-to-all, which r must
	// pass before its next call overwrites the summary. A call in which no
	// rank accesses a byte ends before the all-to-all, but then every
	// pointer handed out is nil.
	metaBytes := int64(16*len(extents)) + 64
	all := f.w.AllgatherVals(p, rank, f.summarize(rank, extents), metaBytes)
	st := &f.ranks[rank]
	myBytes := st.sum.total
	lo, hi, ok := span(all)
	if !ok {
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

	// The send vector is the rank's own, reused across calls: every rank
	// reads it at the instant the all-to-all releases them all, before the
	// owner's post-exchange Sleep ends and it can start the next call.
	if st.send == nil {
		st.send = make([]int64, f.w.Size())
	}
	send := st.send
	clear(send)
	// Only the aggregator materializes the union restricted to its own
	// file domain. It plans into its own buffer, which it keeps across the
	// blocking aggregatorIO, and a reading aggregator counts what it owes
	// each rank while it plans. Off aggregators, needed stays empty and
	// aggregatorIO does nothing.
	var needed []ext.Extent
	if myAgg >= 0 {
		var owed []int64
		if !write {
			owed = send
		}
		st.plan = f.domainPlan(st.plan, all, agg.domain(myAgg), owed)
		needed = st.plan
	}
	if write {
		// Phase 1 (write): owners ship data to aggregators.
		writeSend(send, &st.sum, agg)
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
		f.w.Alltoallv(p, rank, send)
	}
	end.finish(p, myBytes)
}

// summary is one rank's extent list as the other ranks read it after the
// metadata exchange: its canonical form, and the bytes the list covers
// more than once. The owning rank fills it before the exchange.
type summary struct {
	// canon is the list in the canonical form ext.Merge gives: the list
	// itself when it is already canonical, otherwise a view of buf.
	canon []ext.Extent
	buf   []ext.Extent
	// dups holds, for each extent of the list that overlaps the extents
	// before it in offset order, the overlapping part, so that the list's
	// byte count over any range, overlaps counted each time, is canon's
	// plus dups'. It is empty when the list's extents are disjoint.
	dups []ext.Extent
	// total is the list's summed length, as ext.Total gives it.
	total int64
}

// summarize fills rank's summary with xs and returns what the rank hands
// out in the metadata exchange: a pointer to the summary, or nil when xs
// covers no byte.
func (f *File) summarize(rank int, xs []ext.Extent) *summary {
	if f.ranks == nil {
		// A file only ever accessed independently never pays for these.
		f.ranks = make([]rankState, f.w.Size())
	}
	s := &f.ranks[rank].sum
	s.set(xs)
	if len(s.canon) == 0 {
		return nil
	}
	return s
}

// set summarises xs. A list that is already canonical is referenced, not
// copied; any other is sorted and coalesced in the summary's own buffer,
// which later calls reuse.
func (s *summary) set(xs []ext.Extent) {
	s.dups = s.dups[:0]
	// One pass sums the list and checks whether it already is in
	// ext.Merge's form: non-empty extents in offset order with a gap
	// between neighbours.
	s.total = 0
	canonical := true
	for i, e := range xs {
		s.total += e.Len
		if e.Len <= 0 || i > 0 && e.Off <= xs[i-1].End() {
			canonical = false
		}
	}
	if canonical {
		s.canon = xs
		return
	}
	buf := s.buf[:0]
	for _, e := range xs {
		if e.Len > 0 {
			buf = append(buf, e)
		}
	}
	s.buf = buf
	if len(buf) == 0 {
		s.canon = buf
		return
	}
	ext.Sort(buf)
	out := buf[:1]
	for _, e := range buf[1:] {
		last := &out[len(out)-1]
		if e.Off > last.End() {
			out = append(out, e)
			continue
		}
		if e.Off < last.End() {
			s.dups = append(s.dups, ext.Extent{Off: e.Off, Len: min(e.End(), last.End()) - e.Off})
		}
		if e.End() > last.End() {
			last.Len = e.End() - last.Off
		}
	}
	s.canon = out
}

// span is the range [lo, hi) the exchanged summaries' accesses fall in,
// read off the ends of their canonical lists; ok is false when no rank
// accesses a byte.
func span(all []any) (lo, hi int64, ok bool) {
	for _, v := range all {
		s, _ := v.(*summary)
		if s == nil {
			continue
		}
		c := s.canon
		if !ok || c[0].Off < lo {
			lo = c[0].Off
		}
		if !ok || c[len(c)-1].End() > hi {
			hi = c[len(c)-1].End()
		}
		ok = true
	}
	return lo, hi, ok
}

// domainPlan returns the union of the exchanged summaries' canonical lists
// (all[r] is rank r's, nil for an empty list) clipped to domain d, in the
// canonical form ext.Merge gives, built in buf's storage. Each canonical
// list is sorted with disjoint extents, so its overlap with d is a window
// found by binary search; the File's ext.Unioner unites the P windows.
// Every window extent overlaps d, so only the union's first and last
// extents can reach past d and need clipping. When owed is non-nil, owed[r]
// gains rank r's bytes in d counted as overlapTotal counts them over r's
// list: those of r's window, plus what r's list covers more than once (its
// summary's dups). Once buf and the File's Unioner have grown to fit, it
// allocates nothing.
func (f *File) domainPlan(buf []ext.Extent, all []any, d ext.Extent, owed []int64) []ext.Extent {
	dLo, dHi := d.Off, d.End()
	for r, v := range all {
		s, _ := v.(*summary)
		if s == nil {
			continue
		}
		c := s.canon
		// The window is c[i:j]: the extents ending after dLo and starting
		// before dHi.
		i := sort.Search(len(c), func(k int) bool { return c[k].End() > dLo })
		j := i + sort.Search(len(c)-i, func(k int) bool { return c[i+k].Off >= dHi })
		if owed != nil {
			owed[r] += overlapTotal(c[i:j], d) + overlapTotal(s.dups, d)
		}
		f.union.Add(c[i:j])
	}
	buf = f.union.Union(buf)
	if n := len(buf); n > 0 {
		buf[0], _ = buf[0].Clip(dLo, dHi)
		buf[n-1], _ = buf[n-1].Clip(dLo, dHi)
	}
	return buf
}

// writeSend adds to send, for each aggregator, the bytes in its file
// domain of the list s summarises, counting bytes that the list covers more
// than once each time: those of s's canonical list plus those of its dups.
// Every byte lies in the partition's span. Both lists are sorted, so a
// cursor over the domains mostly stays put, and a domain's index and rank
// are computed only when an extent leaves the cursor's domain.
func writeSend(send []int64, s *summary, agg aggInfo) {
	dLo, r := agg.lo, agg.rank(0) // the cursor: its domain's start and aggregator
	for _, xs := range [...][]ext.Extent{s.canon, s.dups} {
		for _, e := range xs {
			for off, end := e.Off, e.End(); off < end; {
				if off < dLo || off >= dLo+agg.per {
					i := int((off - agg.lo) / agg.per)
					dLo, r = agg.lo+int64(i)*agg.per, agg.rank(i)
				}
				n := min(end, dLo+agg.per) - off
				send[r] += n
				off += n
			}
		}
	}
}

// partition splits the accessed span [lo, hi) into stripe-aligned file
// domains, one per aggregator (ROMIO's even partition of [st, end]).
func (f *File) partition(lo, hi int64) aggInfo {
	a := f.aggs
	span := hi - lo
	per := (span + int64(a) - 1) / int64(a)
	per = (per + pfs.StripeUnit - 1) / pfs.StripeUnit * pfs.StripeUnit
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
	sieved, holes := ext.Sieve(needed, dataSieveHole)
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
	st := &f.ranks[rank]
	st.batch = batchBy(st.batch, sieved, f.cfg.CollectiveBufferBytes, func(batch []ext.Extent) {
		if write {
			f.ioErr(cl.Write(p, f.name, batch, origin, rc))
		} else {
			f.ioErr(cl.Read(p, f.name, batch, origin, rc))
		}
	})
	f.endRequest(p, rc, start, verb, ext.Total(needed), len(needed))
}

// batchBy calls fn with consecutive groups of xs of at most limit total
// bytes (single extents larger than limit are split). Each group is built
// in buf's storage and is valid only until fn returns; batchBy returns buf
// for the next call, so a caller that keeps it allocates nothing once it
// has grown to fit.
func batchBy(buf, xs []ext.Extent, limit int64, fn func([]ext.Extent)) []ext.Extent {
	if limit <= 0 {
		fn(xs)
		return buf
	}
	cur := buf[:0]
	var curBytes int64
	for _, e := range xs {
		for e.Len > 0 {
			if curBytes == limit {
				fn(cur)
				cur, curBytes = cur[:0], 0
			}
			take := min(e.Len, limit-curBytes)
			cur = append(cur, ext.Extent{Off: e.Off, Len: take})
			curBytes += take
			e.Off += take
			e.Len -= take
		}
	}
	if len(cur) > 0 {
		fn(cur)
	}
	return cur
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
