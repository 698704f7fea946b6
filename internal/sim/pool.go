package sim

// A Pool is a LIFO free list of *T records. Get hands back the record Put
// last, as it was put, so the owner resets a record before its Put; when
// to Put is the owner's rule too (the last holder of a record recycles it).
//
// A Get on an empty free list carves a fresh zero record from a chunk the
// pool owns instead of allocating one record at a time. The first chunk
// holds one record and each later one as many as the pool has carved so
// far (1, 1, 2, 4, ...), capped at maxChunk: a pool that only ever needs
// one record makes one allocation, one that needs a power of two wastes
// none, and N cold Gets make about log2(N) + N/maxChunk. A carved record is
// never moved or reused by the pool; it comes back only through Put.
//
// The zero value is an empty pool. A Pool has no lock: strict alternation
// serializes every Get and Put made from one kernel, and each pool belongs
// to one cluster's record owner, never shared across clusters.
type Pool[T any] struct {
	free   []*T
	chunk  []T // records not yet handed out, taken from the end
	carved int // records in every chunk so far
}

// maxChunk caps the records one chunk carves.
const maxChunk = 64

// Get pops the last record Put, or carves a zero record when the free list
// is empty.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	n := len(p.chunk)
	if n == 0 {
		n = min(max(p.carved, 1), maxChunk)
		p.carved += n
		p.chunk = make([]T, n)
	}
	x := &p.chunk[n-1]
	p.chunk = p.chunk[:n-1]
	return x
}

// Put pushes x for a later Get.
func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }

// Len reports how many records are pooled; records not yet carved do not
// count.
func (p *Pool[T]) Len() int { return len(p.free) }
