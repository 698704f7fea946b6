package mpiio

import (
	"math/rand"
	"slices"
	"testing"

	"dualpar/internal/ext"
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

// Property: planning every domain into one reused buffer gives, domain by
// domain, exactly the union the per-rank clip-and-merge gave. Rank lists
// are unsorted, overlap, repeat offsets, hold zero-length extents and
// straddle domain edges; some domains are touched by nothing.
func TestDomainPlanMatchesClipMerge(t *testing.T) {
	r := newRig(t, 2, 12, 3)
	f := r.open("f", DefaultConfig())
	unit := r.fsys.Config().StripeUnit
	var buf []ext.Extent
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		span := (1 + rng.Int63n(12)) * unit
		perRank := make([][]ext.Extent, f.w.Size())
		all := make([]any, len(perRank))
		lo, hi := int64(-1), int64(-1)
		for rk := range perRank {
			// Ranks often cluster in one corner so later domains stay empty.
			window := span
			if rng.Intn(3) == 0 {
				window = span / 4
			}
			for n := rng.Intn(12); n > 0; n-- {
				var e ext.Extent
				switch rng.Intn(5) {
				case 0: // zero-length
					e = ext.Extent{Off: rng.Int63n(window)}
				case 1: // duplicate of an earlier offset
					if xs := perRank[rk]; len(xs) > 0 {
						e = ext.Extent{Off: xs[rng.Intn(len(xs))].Off, Len: 1 + rng.Int63n(unit)}
						break
					}
					fallthrough
				default:
					e = ext.Extent{Off: rng.Int63n(window), Len: 1 + rng.Int63n(2*unit)}
				}
				perRank[rk] = append(perRank[rk], e)
				if e.Len > 0 {
					if lo < 0 || e.Off < lo {
						lo = e.Off
					}
					hi = max(hi, e.End())
				}
			}
			all[rk] = perRank[rk]
		}
		if lo < 0 {
			continue
		}
		agg := f.partition(lo, hi)
		domains := refPartition(f.aggs, unit, lo, hi)
		if agg.n != len(domains) {
			t.Fatalf("seed %d: %d domains, want %d", seed, agg.n, len(domains))
		}
		for i, d := range domains {
			if agg.domain(i) != d {
				t.Fatalf("seed %d: domain %d = %v, want %v", seed, i, agg.domain(i), d)
			}
			want := refDomainPlan(perRank, d)
			buf = domainPlan(buf, all, d)
			if !slices.Equal(buf, want) {
				t.Fatalf("seed %d domain %v: plan %v, want %v", seed, d, buf, want)
			}
		}
	}
}

// BenchmarkCollectivePlan is one two-phase call's planning over a 64-rank
// BTIO step (16-byte blocks interleaved across ranks, 8 ranks per node):
// the partition, then every aggregator's domain plan in its own buffer.
// Once the first call has sized the buffers, a call allocates nothing.
func BenchmarkCollectivePlan(b *testing.B) {
	const ranks = 64
	r := newRig(b, 2, ranks, 8)
	f := r.open("btio.dat", DefaultConfig())
	bt := workloads.DefaultBTIO()
	bt.Procs = ranks
	all := make([]any, ranks)
	lo, hi := int64(-1), int64(-1)
	var n int
	for rk := range all {
		g := bt.NewRank(rk)
		g.Next(workloads.TrueEnv{}) // the step's compute
		xs := g.Next(workloads.TrueEnv{}).Extents
		all[rk] = xs
		n += len(xs)
		if lo < 0 || xs[0].Off < lo {
			lo = xs[0].Off
		}
		hi = max(hi, xs[len(xs)-1].End())
	}
	plan := func() {
		agg := f.partition(lo, hi)
		for a := 0; a < agg.n; a++ {
			rk := agg.rank(a)
			f.plans[rk] = domainPlan(f.plans[rk], all, agg.domain(a))
		}
	}
	plan() // sizes the buffers: the steady state is what is measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan()
	}
	b.ReportMetric(float64(n), "extents/op")
}
