package sim

// A Queue is an unbounded FIFO channel in virtual time. Put never blocks;
// Get blocks the calling Proc until an item is available. Multiple getters
// are served in wakeup order, deterministically.
//
// Items live in a power-of-two ring buffer: consuming the head advances an
// index instead of re-slicing, so a long-lived dispatcher queue retains at
// most one buffer of capacity proportional to its high-water mark — never
// the dead prefix of everything it has consumed.
type Queue[T any] struct {
	buf      []T // ring storage; len(buf) is zero or a power of two
	head     int // index of the oldest item
	n        int // queued items
	nonEmpty Signal
}

// NewQueue returns an empty queue. The kernel argument is vestigial (the
// zero Queue works); it is kept so call sites read uniformly.
func NewQueue[T any](k *Kernel) *Queue[T] {
	_ = k
	return &Queue[T]{}
}

// Put appends v and wakes any blocked getters. It may be called from kernel
// or Proc context.
func (q *Queue[T]) Put(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
	q.nonEmpty.Wake(1)
}

// grow doubles the ring (minimum 8 slots), linearizing the live items.
func (q *Queue[T]) grow() {
	nb := make([]T, max(2*len(q.buf), 8))
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

// pop removes and returns the head item; the caller guarantees q.n > 0. The
// vacated slot is zeroed so the ring never retains a consumed item for GC.
func (q *Queue[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Get removes and returns the head item, blocking p while the queue is
// empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.n == 0 {
		q.nonEmpty.Wait(p)
	}
	return q.pop()
}
