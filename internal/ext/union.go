package ext

import "slices"

// Unioner computes the union of canonical lists (Merge's form) by
// pairwise two-pointer merges in binary-counter order: each added list
// merges with the top partial union while that top holds the union of as
// many lists, so every list takes part in about log2(k) merges of
// similar-sized operands. When lists interleave, as the windows of
// two-phase collective planning do, the unions stay small and each merge
// touches only its operands, where a k-way merge pays log2(k) comparisons
// for every extent of every list.
//
// The zero value is ready to use. Its scratch is one buffer per level of
// the counter plus a spare, so it grows with the partial unions' sizes,
// not with the input's; a Unioner reused across Union calls allocates
// nothing once its buffers have grown to fit. After Union it holds no
// reference to the lists it was given.
type Unioner struct {
	// stack holds the partial unions, the union of most lists at the
	// bottom. Its elements past len keep their buffers for later levels.
	stack []partial
	spare []Extent
}

// partial is the union of n added lists. xs is either one added list,
// referenced, or a view of buf, the level's own storage.
type partial struct {
	xs  []Extent
	buf []Extent
	n   int
}

// Add adds xs, which must be in Merge's canonical form, to the union.
// The slice is read, never written, until the next Union call.
func (u *Unioner) Add(xs []Extent) {
	if len(xs) == 0 {
		return
	}
	cur, n := xs, 1
	k := len(u.stack)
	// cur, once merged, is no longer needed: it was either xs or the
	// buffer of level k, which that level keeps for reuse.
	for ; k > 0 && u.stack[k-1].n == n; k-- {
		cur, n = u.merge(k-1, cur), 2*n
	}
	if k == cap(u.stack) {
		u.stack = append(u.stack, partial{})
	}
	u.stack = u.stack[:k+1]
	u.stack[k].xs, u.stack[k].n = cur, n
}

// Union returns the union of the lists added since the last call, in
// Merge's canonical form, built in dst's storage, and starts a new one.
func (u *Unioner) Union(dst []Extent) []Extent {
	dst = dst[:0]
	if n := len(u.stack); n == 1 {
		dst = append(dst, u.stack[0].xs...)
	} else if n > 1 {
		cur := u.stack[n-1].xs
		for k := n - 2; k > 0; k-- {
			cur = u.merge(k, cur)
		}
		dst = union2(dst, u.stack[0].xs, cur)
	}
	for i := range u.stack {
		u.stack[i].xs = nil
	}
	u.stack = u.stack[:0]
	return dst
}

// merge unites level k's partial union with cur in the level's own
// buffer and returns it. The buffer grows at once to the operands' sum,
// the union's largest size, instead of doubling its way there.
func (u *Unioner) merge(k int, cur []Extent) []Extent {
	l := &u.stack[k]
	u.spare = union2(slices.Grow(u.spare[:0], len(l.xs)+len(cur)), l.xs, cur)
	l.buf, u.spare = u.spare, l.buf
	return l.buf
}

// union2 appends the union of canonical lists a and b to dst, which must
// share storage with neither, and returns it.
func union2(dst, a, b []Extent) []Extent {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Off <= b[j].Off {
			dst = absorb(dst, a[i], 0)
			i++
		} else {
			dst = absorb(dst, b[j], 0)
			j++
		}
	}
	rest := a[i:]
	if j < len(b) {
		rest = b[j:]
	}
	// Once the last extent out ends before the next one left starts, the
	// rest keep their gaps and are copied as they are.
	for len(rest) > 0 && len(dst) > 0 && rest[0].Off <= dst[len(dst)-1].End() {
		dst = absorb(dst, rest[0], 0)
		rest = rest[1:]
	}
	return append(dst, rest...)
}
