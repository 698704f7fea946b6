package ext

import "testing"

// eq compares extent slices element-wise.
func eq(a, b []Extent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// clampOff bounds fuzz-supplied offsets/lengths to non-negative values small
// enough that End() cannot overflow.
func clampOff(v int64) int64 {
	if v < 0 {
		v = -v
	}
	return v % (1 << 40)
}

// FuzzMergeWithHoles checks data sieving's invariants under arbitrary
// inputs: the sieved output keeps every gap above maxHole, covers the
// input, matches the sort-and-coalesce reference, and hole accounting
// balances exactly.
func FuzzMergeWithHoles(f *testing.F) {
	f.Add(int64(0), int64(10), int64(12), int64(4), int64(2))
	f.Add(int64(100), int64(1), int64(50), int64(100), int64(0))
	f.Add(int64(5), int64(0), int64(5), int64(5), int64(64))
	f.Fuzz(func(t *testing.T, aOff, aLen, bOff, bLen, hole int64) {
		xs := Merge([]Extent{
			{Off: clampOff(aOff), Len: clampOff(aLen)},
			{Off: clampOff(bOff), Len: clampOff(bLen)},
		})
		maxHole := clampOff(hole)
		sieved, holes := Sieve(xs, maxHole)
		if want := coalesce(append([]Extent(nil), xs...), maxHole); !eq(sieved, want) {
			t.Fatalf("Sieve(%v, %d) = %v, want %v", xs, maxHole, sieved, want)
		}
		for i := 1; i < len(sieved); i++ {
			if sieved[i].Off <= sieved[i-1].End()+maxHole {
				t.Fatalf("gap <= maxHole survived: %v (hole %d)", sieved, maxHole)
			}
		}
		// Coverage: every input byte range must lie inside some output.
		for _, e := range xs {
			covered := false
			for _, m := range sieved {
				if m.Contains(e.Off, e.Len) {
					covered = true
				}
			}
			if !covered {
				t.Fatalf("input %v not covered by %v", e, sieved)
			}
		}
		// Accounting: sieved = input + holes.
		if Total(sieved) != Total(xs)+Total(holes) {
			t.Fatalf("accounting broken: sieved %d != input %d + holes %d",
				Total(sieved), Total(xs), Total(holes))
		}
		// Chunk splitting conserves bytes.
		if pieces := split(sieved, 64<<10); Total(pieces) != Total(sieved) {
			t.Fatalf("split lost bytes")
		}
	})
}

// FuzzHolesReconstruct pins the contract Sieve documents for its holes: the
// input plus the holes must reconstruct the sieved list exactly, the holes
// must be disjoint from the input, and the input is left as it was.
func FuzzHolesReconstruct(f *testing.F) {
	f.Add(int64(0), int64(10), int64(12), int64(4), int64(30), int64(5), int64(8))
	f.Add(int64(100), int64(1), int64(50), int64(100), int64(0), int64(0), int64(0))
	f.Add(int64(5), int64(0), int64(5), int64(5), int64(7), int64(9), int64(64))
	f.Fuzz(func(t *testing.T, aOff, aLen, bOff, bLen, cOff, cLen, hole int64) {
		xs := Merge([]Extent{
			{Off: clampOff(aOff), Len: clampOff(aLen)},
			{Off: clampOff(bOff), Len: clampOff(bLen)},
			{Off: clampOff(cOff), Len: clampOff(cLen)},
		})
		in := append([]Extent(nil), xs...)
		sieved, holes := Sieve(xs, clampOff(hole))
		if !eq(xs, in) {
			t.Fatalf("Sieve modified its input: %v, was %v", xs, in)
		}
		// Exact reconstruction: input ∪ holes == sieved.
		if got := Merge(append(append([]Extent(nil), xs...), holes...)); !eq(got, sieved) {
			t.Fatalf("input %v + holes %v reconstruct %v, want %v", xs, holes, got, sieved)
		}
		// Holes never overlap input data.
		for _, h := range holes {
			for _, c := range xs {
				if h.Overlaps(c) {
					t.Fatalf("hole %v overlaps input %v", h, c)
				}
			}
		}
	})
}

// FuzzAlignSplitRoundTrip checks the chunk-granularity transforms:
// AlignTo yields unit-aligned extents covering the input with bounded
// expansion, and VisitSplit is a pure partition — merging the pieces restores
// the merged input exactly and every piece stays inside one unit block.
func FuzzAlignSplitRoundTrip(f *testing.F) {
	f.Add(int64(0), int64(10), int64(100), int64(28), int64(16))
	f.Add(int64(7), int64(93), int64(64), int64(64), int64(64))
	f.Add(int64(1), int64(1), int64(2), int64(2), int64(1))
	f.Fuzz(func(t *testing.T, aOff, aLen, bOff, bLen, unit int64) {
		xs := []Extent{
			{Off: clampOff(aOff), Len: clampOff(aLen)},
			{Off: clampOff(bOff), Len: clampOff(bLen)},
		}
		u := clampOff(unit)%(1<<20) + 1
		aligned := AlignTo(xs, u)
		merged := Merge(xs)
		for _, a := range aligned {
			if u > 1 && (a.Off%u != 0 || a.End()%u != 0) {
				t.Fatalf("AlignTo(%v, %d) produced unaligned %v", xs, u, a)
			}
		}
		for _, m := range merged {
			covered := false
			for _, a := range aligned {
				if a.Contains(m.Off, m.Len) {
					covered = true
				}
			}
			if !covered {
				t.Fatalf("aligned %v does not cover %v", aligned, m)
			}
		}
		// Expansion bound: at most unit-1 bytes added on each side of each
		// merged extent.
		if Total(aligned) > Total(merged)+int64(len(merged))*2*(u-1) {
			t.Fatalf("AlignTo expanded %d bytes to %d with unit %d", Total(merged), Total(aligned), u)
		}
		// VisitSplit round-trips through Merge and respects block boundaries.
		pieces := split(merged, u)
		if got := Merge(pieces); !eq(got, merged) {
			t.Fatalf("Merge(split(%v, %d)) = %v, want %v", merged, u, got, merged)
		}
		for _, p := range pieces {
			if p.Off/u != (p.End()-1)/u {
				t.Fatalf("piece %v spans a %d-byte boundary", p, u)
			}
		}
	})
}

// decodeLists reads extent lists from fuzz data: each byte pair is one
// extent, offset then length modulo 4; a zero byte ends a list.
func decodeLists(data []byte) [][]Extent {
	var lists [][]Extent
	var cur []Extent
	for len(data) >= 2 {
		if data[0] == 0 {
			lists = append(lists, cur)
			cur = nil
			data = data[1:]
			continue
		}
		cur = append(cur, Extent{Off: int64(data[0]), Len: int64(data[1] % 4)})
		data = data[2:]
	}
	return append(lists, cur)
}

// FuzzMerger checks the Merger against its specification on arbitrary
// lists: the merge is the (Off, Len)-sorted flattening of the non-empty
// extents.
func FuzzMerger(f *testing.F) {
	f.Add([]byte{1, 2, 3, 2, 0, 2, 0, 1, 1})
	f.Add([]byte{9, 1, 4, 1, 9, 1, 0, 0, 9, 2, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		lists := decodeLists(data)
		var m Merger
		m.Reset(lists)
		if got, want := drain(&m), sortedFlat(lists); !eq(got, want) {
			t.Fatalf("merge of %v = %v, want %v", lists, got, want)
		}
	})
}

// FuzzUnion checks the Unioner against Merge on arbitrary canonical lists
// (decodeLists' lists, each put in canonical form, so empty and single
// lists occur): the union equals Merge of their concatenation. One
// Unioner serves every input, which it unites twice, the second time in
// reverse order, and it leaves the lists as they were.
func FuzzUnion(f *testing.F) {
	f.Add([]byte{1, 2, 3, 2, 0, 2, 0, 1, 1})
	f.Add([]byte{9, 1, 4, 1, 9, 1, 0, 0, 9, 2, 9, 1})
	f.Add([]byte{0, 0, 5, 3})
	var many []byte // 21 lists: up to four partial unions at once
	for i := byte(1); i <= 21; i++ {
		many = append(many, i, 2, 3*i+40, 1, 0)
	}
	f.Add(many)
	var u Unioner
	var buf []Extent
	f.Fuzz(func(t *testing.T, data []byte) {
		lists := decodeLists(data)
		var all, in []Extent
		for i, xs := range lists {
			lists[i] = Merge(xs)
			all = append(all, xs...)
			in = append(in, lists[i]...)
		}
		want := Merge(all)
		for pass := 0; pass < 2; pass++ {
			for i := range lists {
				if pass == 1 {
					i = len(lists) - 1 - i
				}
				u.Add(lists[i])
			}
			if buf = u.Union(buf); !eq(buf, want) {
				t.Fatalf("union of %v (pass %d) = %v, want %v", lists, pass, buf, want)
			}
		}
		var after []Extent
		for _, xs := range lists {
			after = append(after, xs...)
		}
		if !eq(after, in) {
			t.Fatalf("union modified its lists: %v, were %v", after, in)
		}
	})
}
