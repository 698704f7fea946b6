// Package ext provides byte-extent math shared by the workload, file
// system, MPI-IO, and DualPar layers: sorting, coalescing, and hole-filling
// of (offset, length) ranges. DualPar's CRM (paper §IV-D) is built on these
// operations: requests from all processes are sorted by file offset,
// adjacent requests merged, and small holes absorbed to form large
// contiguous requests.
package ext

import (
	"cmp"
	"slices"
)

// Extent is a half-open byte range [Off, Off+Len) within a file.
type Extent struct {
	Off int64
	Len int64
}

// End returns the first byte after the extent.
func (e Extent) End() int64 { return e.Off + e.Len }

// Overlaps reports whether e and o share any byte.
func (e Extent) Overlaps(o Extent) bool {
	return e.Off < o.End() && o.Off < e.End()
}

// Contains reports whether e covers [off, off+n).
func (e Extent) Contains(off, n int64) bool {
	return off >= e.Off && off+n <= e.End()
}

// Clip returns the intersection of e with [lo, hi).
func (e Extent) Clip(lo, hi int64) (Extent, bool) {
	o, n := e.Off, e.End()
	if o < lo {
		o = lo
	}
	if n > hi {
		n = hi
	}
	if o >= n {
		return Extent{}, false
	}
	return Extent{Off: o, Len: n - o}, true
}

// Sort orders extents by offset (stable for equal offsets). The generic
// sort moves Extent values directly — no reflection-based swapper — which
// matters because every CRM cycle funnels its request lists through here.
func Sort(xs []Extent) {
	slices.SortStableFunc(xs, func(a, b Extent) int { return cmp.Compare(a.Off, b.Off) })
}

// Total returns the summed length.
func Total(xs []Extent) int64 {
	var t int64
	for _, e := range xs {
		t += e.Len
	}
	return t
}

// Merge sorts a copy of xs and coalesces overlapping or exactly adjacent
// extents. Zero-length extents are dropped. The result is the canonical
// form the other operations here expect: non-empty extents in offset order
// with a gap between neighbours.
func Merge(xs []Extent) []Extent {
	cp := make([]Extent, 0, len(xs))
	for _, e := range xs {
		if e.Len > 0 {
			cp = append(cp, e)
		}
	}
	if len(cp) == 0 {
		return nil
	}
	// The result aliases cp, which this call owns — returning it directly
	// is safe and saves re-copying the result on a very hot path.
	return coalesce(cp, 0)
}

// coalesce sorts xs, whose extents are all non-empty, and merges in place
// those whose gap is at most maxHole. The union does not depend on the
// order of extents with equal offsets.
func coalesce(xs []Extent, maxHole int64) []Extent {
	Sort(xs)
	out := xs[:0]
	for _, e := range xs {
		out = absorb(out, e, maxHole)
	}
	return out
}

// absorb appends e to out, a coalesced list whose last extent starts no
// later than e, or extends that last extent when e lies within maxHole of
// its end.
func absorb(out []Extent, e Extent, maxHole int64) []Extent {
	if n := len(out); n > 0 {
		if last := &out[n-1]; e.Off <= last.End()+maxHole {
			if e.End() > last.End() {
				last.Len = e.End() - last.Off
			}
			return out
		}
	}
	return append(out, e)
}

// Insert adds e to xs, which must be in the canonical form Merge produces
// (sorted by offset, disjoint, no zero gaps), and returns the updated list,
// still canonical. It is equivalent to Merge(append(xs, e)) but coalesces in
// place — no copy, no sort — so per-extent accumulators (cache chunk sets
// and miss lists, ghost recorders) can grow sorted sets without re-merging
// them each time. An extent at or after the last one costs no search.
func Insert(xs []Extent, e Extent) []Extent {
	xs, _ = InsertCount(xs, e)
	return xs
}

// InsertCount is Insert that also returns how many bytes of e xs did not
// cover before, so a caller can keep a set's Total as a running count.
func InsertCount(xs []Extent, e Extent) ([]Extent, int64) {
	if e.Len <= 0 {
		return xs, 0
	}
	// In-order streams start at or after the last extent: append, or join
	// the last extent, which alone can touch e.
	if n := len(xs); n == 0 || e.Off > xs[n-1].End() {
		return append(xs, e), e.Len
	} else if last := &xs[n-1]; e.Off >= last.Off {
		end := last.End()
		if e.End() <= end {
			return xs, 0
		}
		last.Len = e.End() - last.Off
		return xs, e.End() - end
	}
	// First extent that could touch e: End >= e.Off.
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid].End() < e.Off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	// Extents [i, j) overlap or touch e and coalesce with it.
	var covered int64
	j := i
	for j < len(xs) && xs[j].Off <= e.End() {
		covered += xs[j].Len
		j++
	}
	if i == j {
		xs = append(xs, Extent{})
		copy(xs[i+1:], xs[i:])
		xs[i] = e
		return xs, e.Len
	}
	off := min(xs[i].Off, e.Off)
	end := max(xs[j-1].End(), e.End())
	xs[i] = Extent{Off: off, Len: end - off}
	if j > i+1 {
		xs = append(xs[:i+1], xs[j:]...)
	}
	return xs, end - off - covered
}

// Sieve is data sieving over xs, which must be in Merge's canonical form:
// one pass coalesces extents whose gap is at most maxHole bytes, absorbing
// the gap (the paper fills small unrequested holes to form larger
// requests). sieved is the result and holes are the absorbed gaps, which a
// sieved write must first read back. xs is not modified.
func Sieve(xs []Extent, maxHole int64) (sieved, holes []Extent) {
	sieved = make([]Extent, 0, len(xs))
	for _, e := range xs {
		if n := len(sieved); n > 0 {
			if last := &sieved[n-1]; e.Off-last.End() <= maxHole {
				holes = append(holes, Extent{Off: last.End(), Len: e.Off - last.End()})
				last.Len = e.End() - last.Off
				continue
			}
		}
		sieved = append(sieved, e)
	}
	return sieved, holes
}

// AlignTo expands each extent outward to unit boundaries and re-merges the
// result (DualPar aligns cache fills to the 64 KB stripe chunk).
func AlignTo(xs []Extent, unit int64) []Extent {
	if unit <= 1 {
		return Merge(xs)
	}
	cp := make([]Extent, 0, len(xs))
	for _, e := range xs {
		if e.Len <= 0 {
			continue
		}
		lo := e.Off / unit * unit
		hi := (e.End() + unit - 1) / unit * unit
		cp = append(cp, Extent{Off: lo, Len: hi - lo})
	}
	return Merge(cp)
}

// VisitSplit chops extents at multiples of unit and calls fn for each
// piece in order; each piece lies within a single unit-sized block. Hot
// paths that stripe extents across servers or cache chunks use it without
// materializing the piece list.
func VisitSplit(xs []Extent, unit int64, fn func(Extent)) {
	if unit <= 0 {
		panic("ext: non-positive unit")
	}
	for _, e := range xs {
		for e.Len > 0 {
			room := unit - e.Off%unit
			if room > e.Len {
				room = e.Len
			}
			fn(Extent{Off: e.Off, Len: room})
			e.Off += room
			e.Len -= room
		}
	}
}
