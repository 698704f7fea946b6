package ext

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMergeAdjacent(t *testing.T) {
	got := Merge([]Extent{{0, 10}, {10, 10}, {25, 5}})
	want := []Extent{{0, 20}, {25, 5}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Merge = %v, want %v", got, want)
	}
}

func TestMergeOverlapping(t *testing.T) {
	got := Merge([]Extent{{0, 10}, {5, 10}})
	if len(got) != 1 || got[0] != (Extent{0, 15}) {
		t.Fatalf("Merge = %v", got)
	}
}

func TestMergeUnsortedInput(t *testing.T) {
	got := Merge([]Extent{{30, 5}, {0, 10}, {10, 5}})
	if len(got) != 2 || got[0] != (Extent{0, 15}) || got[1] != (Extent{30, 5}) {
		t.Fatalf("Merge = %v", got)
	}
}

func TestMergeDropsEmpty(t *testing.T) {
	got := Merge([]Extent{{5, 0}, {10, 5}})
	if len(got) != 1 || got[0] != (Extent{10, 5}) {
		t.Fatalf("Merge = %v", got)
	}
	if Merge(nil) != nil {
		t.Fatalf("Merge(nil) != nil")
	}
}

func TestMergeWithHolesAbsorbsSmallGaps(t *testing.T) {
	xs := []Extent{{0, 10}, {14, 10}, {100, 10}}
	got := MergeWithHoles(xs, 4)
	if len(got) != 2 || got[0] != (Extent{0, 24}) || got[1] != (Extent{100, 10}) {
		t.Fatalf("MergeWithHoles = %v", got)
	}
}

func TestMergeWithHolesRespectsThreshold(t *testing.T) {
	xs := []Extent{{0, 10}, {15, 10}}
	got := MergeWithHoles(xs, 4) // gap of 5 > 4
	if len(got) != 2 {
		t.Fatalf("gap above threshold merged: %v", got)
	}
}

func TestHoles(t *testing.T) {
	xs := []Extent{{0, 10}, {14, 6}, {30, 10}}
	merged := MergeWithHoles(xs, 100)
	holes := Holes(xs, merged)
	want := []Extent{{10, 4}, {20, 10}}
	if len(holes) != 2 || holes[0] != want[0] || holes[1] != want[1] {
		t.Fatalf("Holes = %v, want %v", holes, want)
	}
}

func TestHolesNoneWhenContiguous(t *testing.T) {
	xs := []Extent{{0, 10}, {10, 10}}
	if h := Holes(xs, Merge(xs)); len(h) != 0 {
		t.Fatalf("Holes = %v, want none", h)
	}
}

func TestAlignTo(t *testing.T) {
	got := AlignTo([]Extent{{5, 10}, {70, 5}}, 64)
	// [5,15) -> [0,64); [70,75) -> [64,128) ; adjacent -> merged
	if len(got) != 1 || got[0] != (Extent{0, 128}) {
		t.Fatalf("AlignTo = %v", got)
	}
}

func TestAlignToUnitOneIsMerge(t *testing.T) {
	got := AlignTo([]Extent{{3, 4}}, 1)
	if len(got) != 1 || got[0] != (Extent{3, 4}) {
		t.Fatalf("AlignTo(1) = %v", got)
	}
}

func TestSplitAt(t *testing.T) {
	got := SplitAt([]Extent{{10, 120}}, 64)
	want := []Extent{{10, 54}, {64, 64}, {128, 2}}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("SplitAt = %v, want %v", got, want)
	}
}

func TestClip(t *testing.T) {
	e := Extent{10, 20}
	if c, ok := e.Clip(15, 25); !ok || c != (Extent{15, 10}) {
		t.Fatalf("Clip = %v,%v", c, ok)
	}
	if _, ok := e.Clip(40, 50); ok {
		t.Fatalf("Clip outside returned ok")
	}
}

func TestOverlapsContains(t *testing.T) {
	a, b := Extent{0, 10}, Extent{9, 5}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatalf("expected overlap")
	}
	c := Extent{10, 5}
	if a.Overlaps(c) {
		t.Fatalf("adjacent extents reported overlapping")
	}
	if !a.Contains(2, 5) || a.Contains(8, 5) {
		t.Fatalf("Contains wrong")
	}
}

// Property: Merge output is sorted, non-overlapping, non-adjacent, and
// preserves coverage.
func TestMergeProperties(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]Extent, int(n)%32)
		for i := range xs {
			xs[i] = Extent{Off: r.Int63n(1000), Len: r.Int63n(100)}
		}
		m := Merge(xs)
		for i := 1; i < len(m); i++ {
			if m[i].Off <= m[i-1].End() {
				return false // overlap or adjacency survived
			}
		}
		// Every input byte is covered.
		for _, e := range xs {
			for _, b := range []int64{e.Off, e.End() - 1} {
				if e.Len == 0 {
					continue
				}
				found := false
				for _, me := range m {
					if b >= me.Off && b < me.End() {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MergeWithHoles(xs, h) total = Total(Merge(xs)) + Total(Holes).
func TestInsertCases(t *testing.T) {
	cases := []struct {
		xs   []Extent
		e    Extent
		want []Extent
	}{
		{nil, Extent{5, 5}, []Extent{{5, 5}}},
		{[]Extent{{0, 5}}, Extent{10, 5}, []Extent{{0, 5}, {10, 5}}},                           // after, disjoint
		{[]Extent{{10, 5}}, Extent{0, 5}, []Extent{{0, 5}, {10, 5}}},                           // before, disjoint
		{[]Extent{{0, 5}}, Extent{5, 5}, []Extent{{0, 10}}},                                    // adjacent right
		{[]Extent{{5, 5}}, Extent{0, 5}, []Extent{{0, 10}}},                                    // adjacent left
		{[]Extent{{0, 5}, {10, 5}}, Extent{4, 7}, []Extent{{0, 15}}},                           // bridges two
		{[]Extent{{0, 5}, {10, 5}, {20, 5}}, Extent{2, 1}, []Extent{{0, 5}, {10, 5}, {20, 5}}}, // contained
		{[]Extent{{0, 5}, {10, 5}, {20, 5}}, Extent{6, 20}, []Extent{{0, 5}, {6, 20}}},         // swallows tail
		{[]Extent{{10, 5}}, Extent{12, 1}, []Extent{{10, 5}}},                                  // fully inside
		{[]Extent{{10, 5}}, Extent{3, 0}, []Extent{{10, 5}}},                                   // zero length no-op
	}
	for _, c := range cases {
		got := Insert(append([]Extent(nil), c.xs...), c.e)
		if len(got) != len(c.want) {
			t.Fatalf("Insert(%v, %v) = %v, want %v", c.xs, c.e, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Insert(%v, %v) = %v, want %v", c.xs, c.e, got, c.want)
			}
		}
	}
}

// Property: folding Insert over any extent sequence yields exactly
// Merge of the whole sequence — the canonical forms are identical.
func TestInsertEquivalentToMerge(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]Extent, int(n)%48)
		var folded []Extent
		for i := range xs {
			xs[i] = Extent{Off: r.Int63n(300), Len: r.Int63n(40)}
			folded = Insert(folded, xs[i])
		}
		want := Merge(xs)
		if len(folded) != len(want) {
			return false
		}
		for i := range want {
			if folded[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MergeInPlace gives MergeWithHoles's result in the input's own
// storage, and an input with nothing left keeps its capacity.
func TestMergeInPlaceEquivalentToMerge(t *testing.T) {
	f := func(seed int64, n uint8, hole uint8) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]Extent, int(n)%48)
		for i := range xs {
			xs[i] = Extent{Off: r.Int63n(300), Len: r.Int63n(40)}
		}
		maxHole := int64(hole % 24)
		want := MergeWithHoles(xs, maxHole)
		got := MergeInPlace(xs, maxHole)
		if len(got) != len(want) || (len(xs) > 0 && &got[:1][0] != &xs[0]) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	empty := MergeInPlace(make([]Extent, 3, 8), 16)
	if len(empty) != 0 || cap(empty) != 8 {
		t.Fatalf("all-empty input: len %d cap %d, want 0 and 8", len(empty), cap(empty))
	}
}

func TestHolesAccounting(t *testing.T) {
	f := func(seed int64, n uint8, hole uint16) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]Extent, 1+int(n)%16)
		for i := range xs {
			xs[i] = Extent{Off: r.Int63n(4096), Len: 1 + r.Int63n(256)}
		}
		maxHole := int64(hole % 512)
		merged := MergeWithHoles(xs, maxHole)
		holes := Holes(xs, merged)
		return Total(merged) == Total(Merge(xs))+Total(holes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SplitAt preserves total bytes and every piece stays within one
// unit block.
func TestSplitAtProperties(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]Extent, int(n)%16)
		for i := range xs {
			xs[i] = Extent{Off: r.Int63n(1 << 20), Len: 1 + r.Int63n(1<<18)}
		}
		unit := int64(64 << 10)
		pieces := SplitAt(xs, unit)
		if Total(pieces) != Total(xs) {
			return false
		}
		for _, p := range pieces {
			if p.Off/unit != (p.End()-1)/unit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
