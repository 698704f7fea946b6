package ext

import "math"

// Merger yields the non-empty extents of a list of slices in (Off, Len)
// order without copying them. DualPar's request lists hold each request's
// own extent slice by reference, and those slices are long ascending runs
// (a strided request ascends; ranks interleave whole requests), so a k-way
// merge over the runs replaces a sort of the flattened list. Lists that
// are already canonical are united faster by Unioner.
//
// It is a loser tree over the maximal ascending runs of the slices. Zero-
// length extents are skipped and do not end a run. Ordering by length
// after offset makes the stream a function of the extents' multiset, not
// of their arrival order. The zero value is ready to use, and a Merger
// reused across Reset calls allocates nothing once its storage has grown
// to the largest run count. A drained Merger holds no reference to the
// slices it merged.
type Merger struct {
	runs []run
	// tree is the loser tree: tree[0] holds the current winner, tree[p]
	// for 1 <= p < len(runs) the loser of the match at internal node p.
	// Run i is the leaf at position len(runs)+i; the parent of p is p/2.
	// Each node carries its key, so a replay reads only this array.
	tree []node
}

// run is the rest of one ascending run; its first extent is non-empty.
type run struct{ xs []Extent }

type node struct {
	key Extent
	run int32
}

// exhausted is the key of a run with nothing left; it loses to every
// extent.
var exhausted = Extent{Off: math.MaxInt64, Len: math.MaxInt64}

// less orders extents by offset, then length.
func less(a, b Extent) bool {
	return a.Off < b.Off || a.Off == b.Off && a.Len < b.Len
}

// Reset starts a merge of lists' non-empty extents. The slices are read,
// never written, until the merge is drained or reset.
func (m *Merger) Reset(lists [][]Extent) {
	clear(m.runs) // drop what an undrained merge still references
	if cap(m.runs) < len(lists) {
		// Every list with an extent is at least one run.
		m.runs = make([]run, 0, len(lists))
	}
	m.runs = m.runs[:0]
	for _, xs := range lists {
		start := -1
		var prev Extent
		for i, e := range xs {
			if e.Len <= 0 {
				continue
			}
			if start < 0 {
				start = i
			} else if less(e, prev) {
				m.runs = append(m.runs, run{xs[start:i]})
				start = i
			}
			prev = e
		}
		if start >= 0 {
			m.runs = append(m.runs, run{xs[start:]})
		}
	}
	if n := max(len(m.runs), 1); cap(m.tree) < n {
		m.tree = make([]node, n)
	} else {
		m.tree = m.tree[:n]
	}
	m.tree[0] = node{key: exhausted}
	if len(m.runs) > 0 {
		m.tree[0] = m.build(1)
	}
}

// build fills the losers of the subtree at p and returns its winner.
func (m *Merger) build(p int) node {
	if k := len(m.runs); p >= k {
		return node{key: m.runs[p-k].xs[0], run: int32(p - k)}
	}
	a, b := m.build(2*p), m.build(2*p+1)
	if less(b.key, a.key) {
		a, b = b, a
	}
	m.tree[p] = b
	return a
}

// Next returns the next extent in (Off, Len) order, or false once the
// merge is drained.
func (m *Merger) Next() (Extent, bool) {
	w := m.tree[0]
	if w.key == exhausted {
		return Extent{}, false
	}
	r := &m.runs[w.run]
	xs := r.xs[1:]
	for len(xs) > 0 && xs[0].Len <= 0 {
		xs = xs[1:]
	}
	cur := node{key: exhausted, run: w.run}
	if len(xs) > 0 {
		r.xs = xs
		cur.key = xs[0]
	} else {
		r.xs = nil
	}
	for p := (len(m.runs) + int(w.run)) >> 1; p > 0; p >>= 1 {
		if t := &m.tree[p]; less(t.key, cur.key) {
			cur, *t = *t, cur
		}
	}
	m.tree[0] = cur
	return w.key, true
}

// Coalesce drains m into buf's storage, coalescing extents whose gap is at
// most maxHole (0 gives Merge's canonical form of the lists' union), and
// returns the result. The result aliases buf, so a caller can reuse one
// buffer across merges.
func (m *Merger) Coalesce(buf []Extent, maxHole int64) []Extent {
	out := buf[:0]
	for e, ok := m.Next(); ok; e, ok = m.Next() {
		out = absorb(out, e, maxHole)
	}
	return out
}
