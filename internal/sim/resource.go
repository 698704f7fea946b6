package sim

import "fmt"

// A Resource is a counting semaphore in virtual time with FIFO admission:
// a large request at the head of the line blocks smaller ones behind it, so
// no requester starves.
type Resource struct {
	k     *Kernel
	cap   int
	used  int
	queue []*resWaiter
}

type resWaiter struct {
	p       *Proc
	n       int
	granted bool
}

// NewResource returns a Resource with the given capacity.
func (k *Kernel) NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: non-positive resource capacity")
	}
	return &Resource{k: k, cap: capacity}
}

// Acquire blocks p until n units are available and takes them. n must not
// exceed the capacity.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.cap {
		panic(fmt.Sprintf("sim: acquire %d of capacity %d", n, r.cap))
	}
	if len(r.queue) == 0 && r.used+n <= r.cap {
		r.used += n
		return
	}
	w := &resWaiter{p: p, n: n}
	r.queue = append(r.queue, w)
	p.park()
	if !w.granted {
		panic("sim: resource waiter woken without grant")
	}
}

// Release returns n units and admits as many queued waiters, in FIFO order,
// as now fit.
func (r *Resource) Release(n int) {
	if n <= 0 {
		panic("sim: non-positive release")
	}
	r.used -= n
	if r.used < 0 {
		panic("sim: resource released below zero")
	}
	for len(r.queue) > 0 {
		head := r.queue[0]
		if r.used+head.n > r.cap {
			break
		}
		r.used += head.n
		head.granted = true
		r.queue = r.queue[1:]
		head.p.wakeAt(r.k.now)
	}
}

// InUse reports the units currently held.
func (r *Resource) InUse() int { return r.used }
