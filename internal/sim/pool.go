package sim

// A Pool is a LIFO free list of *T records. Get hands back the record Put
// last, as it was put, so the owner resets a record before its Put; when
// to Put is the owner's rule too (the last holder of a record recycles it).
//
// The zero value is an empty pool. A Pool has no lock: strict alternation
// serializes every Get and Put made from one kernel, and each pool belongs
// to one cluster's record owner, never shared across clusters.
type Pool[T any] struct {
	free []*T
}

// Get pops the last record Put, or returns new(T) when the pool is empty.
func (p *Pool[T]) Get() *T {
	n := len(p.free)
	if n == 0 {
		return new(T)
	}
	x := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return x
}

// Put pushes x for a later Get.
func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }

// Len reports how many records are pooled.
func (p *Pool[T]) Len() int { return len(p.free) }
