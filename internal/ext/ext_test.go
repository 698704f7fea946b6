package ext

import (
	"cmp"
	"math/rand"
	"slices"
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

func TestSieveAbsorbsSmallGaps(t *testing.T) {
	xs := []Extent{{0, 10}, {14, 10}, {100, 10}}
	got, holes := Sieve(xs, 4)
	if len(got) != 2 || got[0] != (Extent{0, 24}) || got[1] != (Extent{100, 10}) {
		t.Fatalf("Sieve = %v", got)
	}
	if len(holes) != 1 || holes[0] != (Extent{10, 4}) {
		t.Fatalf("Sieve holes = %v", holes)
	}
}

func TestSieveRespectsThreshold(t *testing.T) {
	xs := []Extent{{0, 10}, {15, 10}}
	got, holes := Sieve(xs, 4) // gap of 5 > 4
	if len(got) != 2 || len(holes) != 0 {
		t.Fatalf("gap above threshold merged: %v, holes %v", got, holes)
	}
}

func TestHoles(t *testing.T) {
	xs := []Extent{{0, 10}, {14, 6}, {30, 10}}
	_, holes := Sieve(xs, 100)
	want := []Extent{{10, 4}, {20, 10}}
	if len(holes) != 2 || holes[0] != want[0] || holes[1] != want[1] {
		t.Fatalf("Holes = %v, want %v", holes, want)
	}
}

func TestHolesNoneWhenContiguous(t *testing.T) {
	xs := []Extent{{0, 10}, {10, 10}}
	if _, h := Sieve(Merge(xs), 100); len(h) != 0 {
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
	got := split([]Extent{{10, 120}}, 64)
	want := []Extent{{10, 54}, {64, 64}, {128, 2}}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("VisitSplit = %v, want %v", got, want)
	}
}

// split collects the pieces VisitSplit visits.
func split(xs []Extent, unit int64) []Extent {
	var out []Extent
	VisitSplit(xs, unit, func(e Extent) { out = append(out, e) })
	return out
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
// Merge of the whole sequence — the canonical forms are identical — and
// the bytes InsertCount reports as newly covered sum to the set's Total
// after every step.
func TestInsertEquivalentToMerge(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]Extent, int(n)%48)
		var folded []Extent
		var counted int64
		for i := range xs {
			xs[i] = Extent{Off: r.Int63n(300), Len: r.Int63n(40)}
			var added int64
			folded, added = InsertCount(folded, xs[i])
			if counted += added; counted != Total(folded) {
				return false
			}
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

// Property: a Merger's Coalesce over any split of xs into slices gives
// the sort-and-coalesce reference's result, in the buffer's own storage.
func TestMergerCoalesceEquivalentToMerge(t *testing.T) {
	var m Merger
	buf := make([]Extent, 0, 64)
	f := func(seed int64, n uint8, hole uint8) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]Extent, int(n)%48)
		for i := range xs {
			xs[i] = Extent{Off: r.Int63n(300), Len: r.Int63n(40)}
		}
		maxHole := int64(hole % 24)
		var nonEmpty []Extent
		for _, e := range xs {
			if e.Len > 0 {
				nonEmpty = append(nonEmpty, e)
			}
		}
		want := coalesce(nonEmpty, maxHole)
		m.Reset(splitRandomly(xs, r))
		got := m.Coalesce(buf, maxHole)
		return eq(got, want) && (len(got) == 0 || &got[:1][0] == &buf[:1][0])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// splitRandomly cuts xs into consecutive slices of random lengths, empty
// ones included.
func splitRandomly(xs []Extent, r *rand.Rand) [][]Extent {
	var lists [][]Extent
	for len(xs) > 0 || r.Intn(4) == 0 {
		n := r.Intn(len(xs) + 1)
		lists = append(lists, xs[:n])
		xs = xs[n:]
	}
	return lists
}

// sortedFlat is the Merger's specification: lists' non-empty extents,
// flattened and sorted by (Off, Len).
func sortedFlat(lists [][]Extent) []Extent {
	var out []Extent
	for _, xs := range lists {
		for _, e := range xs {
			if e.Len > 0 {
				out = append(out, e)
			}
		}
	}
	slices.SortFunc(out, func(a, b Extent) int {
		return cmp.Or(cmp.Compare(a.Off, b.Off), cmp.Compare(a.Len, b.Len))
	})
	return out
}

// drain collects what m yields.
func drain(m *Merger) []Extent {
	var out []Extent
	for e, ok := m.Next(); ok; e, ok = m.Next() {
		out = append(out, e)
	}
	return out
}

// Property: the merge is the (Off, Len)-sorted flattening of its lists,
// whatever the runs look like: ties at one offset, zero-length extents
// inside and between runs, descents inside one slice.
func TestMergerYieldsSortedFlattening(t *testing.T) {
	var m Merger
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]Extent, int(n)%64)
		off := int64(0)
		for i := range xs {
			if r.Intn(5) == 0 {
				off = r.Int63n(200) // descend (or not) to start a new run
			} else {
				off += r.Int63n(3) * 8
			}
			xs[i] = Extent{Off: off, Len: r.Int63n(4) * 8}
		}
		lists := splitRandomly(xs, r)
		m.Reset(lists)
		return eq(drain(&m), sortedFlat(lists))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	m.Reset(nil)
	if e, ok := m.Next(); ok {
		t.Fatalf("empty merge yielded %v", e)
	}
}

// A Merger reused across merges allocates nothing, and neither a drained
// nor a re-Reset one keeps its old lists reachable.
func TestMergerReuse(t *testing.T) {
	lists := [][]Extent{{{0, 8}, {16, 8}}, {{8, 8}, {0, 0}, {4, 8}}, {{24, 8}}}
	var m Merger
	buf := make([]Extent, 0, 8)
	m.Reset(lists)
	m.Coalesce(buf, 0)
	if allocs := testing.AllocsPerRun(100, func() {
		m.Reset(lists)
		buf = m.Coalesce(buf, 0)
	}); allocs != 0 {
		t.Fatalf("warm merge allocated %v times", allocs)
	}
	if want := []Extent{{0, 32}}; !eq(buf, want) {
		t.Fatalf("Coalesce = %v, want %v", buf, want)
	}
	// held reports whether a run past the current merge's references a list.
	held := func() bool {
		for _, r := range m.runs[len(m.runs):cap(m.runs)] {
			if r.xs != nil {
				return true
			}
		}
		return false
	}
	if m.runs = m.runs[:0]; held() {
		t.Fatal("a drained merge still references its lists")
	}
	m.Reset(lists)
	m.Next()
	if m.Reset([][]Extent{{{0, 1}}}); held() {
		t.Fatal("Reset kept an undrained merge's lists")
	}
}

// A Unioner reused across unions allocates nothing once grown, and after
// Union keeps none of the lists it was given reachable.
func TestUnionerReuse(t *testing.T) {
	var lists [][]Extent
	for r := int64(0); r < 13; r++ {
		lists = append(lists, []Extent{{r * 4, 4}, {r*4 + 64, 4}, {r*4 + 128, 4}})
	}
	var u Unioner
	buf := make([]Extent, 0, 8)
	unite := func() {
		for _, xs := range lists {
			u.Add(xs)
		}
		buf = u.Union(buf)
	}
	unite()
	if allocs := testing.AllocsPerRun(100, unite); allocs != 0 {
		t.Fatalf("warm union allocated %v times", allocs)
	}
	if want := []Extent{{0, 52}, {64, 52}, {128, 52}}; !eq(buf, want) {
		t.Fatalf("Union = %v, want %v", buf, want)
	}
	for _, l := range u.stack[:cap(u.stack)] {
		if l.xs != nil {
			t.Fatal("a finished union still references a list")
		}
	}
	if got := u.Union(buf); len(got) != 0 {
		t.Fatalf("empty union = %v", got)
	}
}

// Property: sieving a canonical list adds exactly its holes' bytes.
func TestHolesAccounting(t *testing.T) {
	f := func(seed int64, n uint8, hole uint16) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]Extent, 1+int(n)%16)
		for i := range xs {
			xs[i] = Extent{Off: r.Int63n(4096), Len: 1 + r.Int63n(256)}
		}
		maxHole := int64(hole % 512)
		canon := Merge(xs)
		sieved, holes := Sieve(canon, maxHole)
		return Total(sieved) == Total(canon)+Total(holes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: VisitSplit preserves total bytes and every piece stays within
// one unit block.
func TestSplitAtProperties(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]Extent, int(n)%16)
		for i := range xs {
			xs[i] = Extent{Off: r.Int63n(1 << 20), Len: 1 + r.Int63n(1<<18)}
		}
		unit := int64(64 << 10)
		pieces := split(xs, unit)
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
