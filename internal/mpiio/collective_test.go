package mpiio

import (
	"math/rand"
	"slices"
	"testing"

	"dualpar/internal/ext"
	"dualpar/internal/pfs"
	"dualpar/internal/workloads"
)

// refDomainPlan is the plan as first written: each rank's extents clipped
// into a fresh list, the lists concatenated, and ext.Merge over a copy.
func refDomainPlan(perRank [][]ext.Extent, d ext.Extent) []ext.Extent {
	var needed []ext.Extent
	for _, xs := range perRank {
		for _, e := range xs {
			if c, ok := e.Clip(d.Off, d.End()); ok {
				needed = append(needed, c)
			}
		}
	}
	return ext.Merge(needed)
}

// refPartition is the partition as first written: a slice of domains, one
// per aggregator, stopping at the first that would start at or past hi.
func refPartition(a int, unit, lo, hi int64) []ext.Extent {
	per := (hi - lo + int64(a) - 1) / int64(a)
	per = (per + unit - 1) / unit * unit
	var out []ext.Extent
	for i := 0; i < a; i++ {
		dLo := lo + int64(i)*per
		if dLo >= hi {
			break
		}
		out = append(out, ext.Extent{Off: dLo, Len: min(dLo+per, hi) - dLo})
	}
	return out
}

// randomLists draws one extent list per rank over a span of a few stripe
// units. Lists are unsorted, overlap themselves (nesting included), repeat
// offsets and hold zero-length extents; some are already canonical, some
// ranks are empty, and ranks often cluster in one corner so later domains
// stay empty. In half the draws extents start and end on a grid of an
// eighth of a stripe unit, give or take a byte; domain edges then lie
// within a byte of that grid, so extents end at, just before and just
// after an edge.
func randomLists(rng *rand.Rand, ranks int, unit int64) [][]ext.Extent {
	span := (1 + rng.Int63n(12)) * unit
	snap := func(v int64) int64 { return v }
	if rng.Intn(2) == 0 {
		snap = func(v int64) int64 { return max(0, v/(unit/8)*(unit/8)+rng.Int63n(3)-1) }
	}
	perRank := make([][]ext.Extent, ranks)
	for rk := range perRank {
		window := span
		if rng.Intn(3) == 0 {
			window = span / 4
		}
		for n := rng.Intn(12); n > 0; n-- {
			var e ext.Extent
			xs := perRank[rk]
			switch rng.Intn(6) {
			case 0: // zero-length
				e = ext.Extent{Off: rng.Int63n(window)}
			case 1: // duplicate of an earlier offset
				if len(xs) > 0 {
					e = ext.Extent{Off: xs[rng.Intn(len(xs))].Off, Len: 1 + rng.Int63n(unit)}
					break
				}
				fallthrough
			case 2: // nested in an earlier extent
				if len(xs) > 0 && xs[len(xs)-1].Len > 1 {
					p := xs[len(xs)-1]
					off := p.Off + rng.Int63n(p.Len-1)
					e = ext.Extent{Off: off, Len: 1 + rng.Int63n(p.End()-off)}
					break
				}
				fallthrough
			default:
				e = ext.Extent{Off: rng.Int63n(window), Len: 1 + rng.Int63n(2*unit)}
			}
			if e.Len > 0 {
				off := snap(e.Off)
				e = ext.Extent{Off: off, Len: max(1, snap(e.End())-off)}
			}
			perRank[rk] = append(perRank[rk], e)
		}
		if rng.Intn(4) == 0 {
			perRank[rk] = ext.Merge(perRank[rk])
		}
	}
	return perRank
}

// checkPlan summarises each rank's list on f as a collective call does,
// then checks the span, the partition, every domain plan and both send
// vectors against the clip-and-merge reference over the raw lists.
func checkPlan(t testing.TB, f *File, perRank [][]ext.Extent) {
	t.Helper()
	lo, hi := int64(-1), int64(-1)
	all := make([]any, len(perRank))
	for rk, xs := range perRank {
		all[rk] = f.summarize(rk, xs)
		for _, e := range xs {
			if e.Len > 0 {
				if lo < 0 || e.Off < lo {
					lo = e.Off
				}
				hi = max(hi, e.End())
			}
		}
	}
	gotLo, gotHi, ok := span(all)
	if ok != (lo >= 0) || ok && (gotLo != lo || gotHi != hi) {
		t.Fatalf("span [%d, %d) ok=%v, want [%d, %d) of %v", gotLo, gotHi, ok, lo, hi, perRank)
	}
	if !ok {
		return
	}
	agg := f.partition(lo, hi)
	domains := refPartition(f.aggs, pfs.StripeUnit, lo, hi)
	if agg.n != len(domains) {
		t.Fatalf("%d domains, want %d", agg.n, len(domains))
	}
	size := len(perRank)
	for i, d := range domains {
		if agg.domain(i) != d {
			t.Fatalf("domain %d = %v, want %v", i, agg.domain(i), d)
		}
		st := &f.ranks[agg.rank(i)]
		got := make([]int64, size)
		st.plan = f.domainPlan(st.plan, all, d, got)
		if want := refDomainPlan(perRank, d); !slices.Equal(st.plan, want) {
			t.Fatalf("domain %v of %v: plan %v, want %v", d, perRank, st.plan, want)
		}
		for rk, xs := range perRank {
			if want := overlapTotal(xs, d); got[rk] != want {
				t.Fatalf("domain %v: read send to rank %d = %d, want %d (list %v)", d, rk, got[rk], want, xs)
			}
		}
	}
	for rk, xs := range perRank {
		send := make([]int64, size)
		writeSend(send, &f.ranks[rk].sum, agg)
		want := make([]int64, size)
		for i, d := range domains {
			want[agg.rank(i)] = overlapTotal(xs, d)
		}
		if !slices.Equal(send, want) {
			t.Fatalf("rank %d write send %v, want %v (list %v)", rk, send, want, xs)
		}
	}
}

// Property: the summaries' span, each aggregator's merged plan and both
// send vectors equal, domain by domain, what clipping every raw list and
// merging gives, for worlds of one rank, a few, and a dozen.
func TestDomainPlanMatchesClipMerge(t *testing.T) {
	for _, shape := range []struct{ ranks, perNode int }{{1, 1}, {5, 2}, {12, 3}} {
		r := newRig(t, 2, shape.ranks, shape.perNode)
		f := r.open("f", DefaultConfig())
		unit := pfs.StripeUnit
		for seed := int64(1); seed <= 400; seed++ {
			perRank := randomLists(rand.New(rand.NewSource(seed)), shape.ranks, unit)
			checkPlan(t, f, perRank)
		}
	}
}

// fuzzRanks and fuzzPerNode shape the world FuzzCollectivePlan plans for.
const fuzzRanks, fuzzPerNode = 6, 2

// encodeLists packs per-rank lists into FuzzCollectivePlan's input: 7 bytes
// an extent, a rank byte then a 3-byte offset and a 3-byte length (little
// endian), in list order.
func encodeLists(perRank [][]ext.Extent) []byte {
	var b []byte
	for rk, xs := range perRank {
		for _, e := range xs {
			b = append(b, byte(rk),
				byte(e.Off), byte(e.Off>>8), byte(e.Off>>16),
				byte(e.Len), byte(e.Len>>8), byte(e.Len>>16))
		}
	}
	return b
}

// decodeLists is encodeLists' inverse; rank bytes wrap around the world.
func decodeLists(b []byte, ranks int) [][]ext.Extent {
	perRank := make([][]ext.Extent, ranks)
	u24 := func(p []byte) int64 { return int64(p[0]) | int64(p[1])<<8 | int64(p[2])<<16 }
	for ; len(b) >= 7; b = b[7:] {
		rk := int(b[0]) % ranks
		perRank[rk] = append(perRank[rk], ext.Extent{Off: u24(b[1:4]), Len: u24(b[4:7])})
	}
	return perRank
}

// FuzzCollectivePlan checks the summaries, span, domain plans and send
// vectors of arbitrary per-rank lists against clip-and-merge, seeded with
// the property test's shapes.
func FuzzCollectivePlan(f *testing.F) {
	r := newRig(f, 2, fuzzRanks, fuzzPerNode)
	file := r.open("f", DefaultConfig())
	unit := pfs.StripeUnit
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(encodeLists(randomLists(rand.New(rand.NewSource(seed)), fuzzRanks, unit)))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkPlan(t, file, decodeLists(b, fuzzRanks))
	})
}

// BenchmarkCollectivePlan is everything one two-phase write call plans over
// a 64-rank BTIO step (16-byte blocks interleaved across ranks, 8 ranks per
// node): each rank's summary, the span and the partition, every
// aggregator's domain plan in its own buffer, and every rank's send vector.
// Once the first call has sized the buffers, a call allocates nothing.
func BenchmarkCollectivePlan(b *testing.B) {
	const ranks = 64
	bt := workloads.DefaultBTIO()
	bt.Procs = ranks
	lists := make([][]ext.Extent, ranks)
	for rk := range lists {
		g := bt.NewRank(rk)
		g.Next(workloads.TrueEnv{}) // the step's compute
		lists[rk] = g.Next(workloads.TrueEnv{}).Extents
	}
	benchPlan(b, lists)
}

// BenchmarkCollectivePlanSparse is BenchmarkCollectivePlan's plan over
// lists that do not interleave: each rank's 2048 extents, of random
// lengths with random gaps between them, fill a block of the file of its
// own, and the blocks lie in random rank order. A domain's union then is
// as long as its windows together.
func BenchmarkCollectivePlanSparse(b *testing.B) {
	const ranks, perRank = 64, 2048
	rng := rand.New(rand.NewSource(1))
	lists := make([][]ext.Extent, ranks)
	var off int64
	for _, rk := range rng.Perm(ranks) {
		for i := 0; i < perRank; i++ {
			off += 1 + rng.Int63n(64)
			n := 1 + rng.Int63n(64)
			lists[rk] = append(lists[rk], ext.Extent{Off: off, Len: n})
			off += n
		}
	}
	benchPlan(b, lists)
}

// benchPlan times the plans of one two-phase write call over lists, one
// per rank of a world with 8 ranks per node, after a first call has sized
// the buffers.
func benchPlan(b *testing.B, lists [][]ext.Extent) {
	ranks := len(lists)
	r := newRig(b, 2, ranks, 8)
	f := r.open("plan.dat", DefaultConfig())
	var n int
	for _, xs := range lists {
		n += len(xs)
	}
	all := make([]any, ranks)
	send := make([]int64, ranks)
	plan := func() {
		for rk, xs := range lists {
			all[rk] = f.summarize(rk, xs)
		}
		lo, hi, _ := span(all)
		agg := f.partition(lo, hi)
		for a := 0; a < agg.n; a++ {
			st := &f.ranks[agg.rank(a)]
			st.plan = f.domainPlan(st.plan, all, agg.domain(a), nil)
		}
		for rk := range lists {
			clear(send)
			writeSend(send, &f.ranks[rk].sum, agg)
		}
	}
	plan()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan()
	}
	b.ReportMetric(float64(n), "extents/op")
}
