package iosched

import (
	"sort"
	"time"
)

// The elevator toolkit: the merge rule, the LBN-sorted queue and the
// expiry FIFO the policies are built from.

// adjacent reports whether b can merge onto the end of a: same direction,
// a ends exactly where b starts, and the result stays within
// MaxMergeSectors.
func adjacent(a, b *Request) bool {
	return a.Write == b.Write && a.End() == b.LBN && a.Sectors+b.Sectors <= MaxMergeSectors
}

// firstMergeRoom is the room a request's first merge makes in its merge
// list, which then keeps it through Reset: the sequential streams of the
// bench workloads merge up to seven requests into one, and growing the
// list 1, 2, 4, 8 would cost four allocations where this costs one.
const firstMergeRoom = 8

// absorb merges r, with everything r had absorbed, into q, which grows to
// cover r. The two must be adjacent, in either order.
func (q *Request) absorb(r *Request) {
	if r.LBN < q.LBN {
		q.LBN = r.LBN
	}
	q.Sectors += r.Sectors
	if q.absorbed == nil {
		q.absorbed = make([]*Request, 0, firstMergeRoom)
	}
	q.absorbed = append(q.absorbed, r)
	q.absorbed = append(q.absorbed, r.absorbed...)
	r.dropAbsorbed()
}

// sortedQueue keeps pending requests in ascending LBN order and performs
// front/back merging of adjacent same-direction requests.
type sortedQueue struct {
	reqs []*Request
}

func (q *sortedQueue) len() int { return len(q.reqs) }

// search returns the index of the first request at or after lbn.
func (q *sortedQueue) search(lbn int64) int {
	return sort.Search(len(q.reqs), func(i int) bool { return q.reqs[i].LBN >= lbn })
}

// insert adds r, merging with an adjacent pending request when possible.
// It reports whether r was absorbed into an existing request.
func (q *sortedQueue) insert(r *Request) bool {
	i := q.search(r.LBN)
	// Back merge: predecessor ends exactly where r starts.
	if i > 0 && adjacent(q.reqs[i-1], r) {
		q.reqs[i-1].absorb(r)
		return true
	}
	// Front merge: r ends exactly where successor starts.
	if i < len(q.reqs) && adjacent(r, q.reqs[i]) {
		q.reqs[i].absorb(r)
		return true
	}
	q.reqs = append(q.reqs, nil)
	copy(q.reqs[i+1:], q.reqs[i:])
	q.reqs[i] = r
	return false
}

// cscan returns the index of the request C-SCAN order serves next from
// head: the first at or after head, else (wrapping) the lowest LBN. The
// queue must not be empty.
func (q *sortedQueue) cscan(head int64) int {
	if i := q.search(head); i < len(q.reqs) {
		return i
	}
	return 0
}

// nextFrom removes and returns the request C-SCAN order serves next from
// head. The queue must not be empty.
func (q *sortedQueue) nextFrom(head int64) *Request { return q.removeAt(q.cscan(head)) }

func (q *sortedQueue) removeAt(i int) *Request {
	r := q.reqs[i]
	copy(q.reqs[i:], q.reqs[i+1:])
	q.reqs[len(q.reqs)-1] = nil
	q.reqs = q.reqs[:len(q.reqs)-1]
	return r
}

// remove deletes a specific request (identity comparison).
func (q *sortedQueue) remove(r *Request) {
	for i, x := range q.reqs {
		if x == r {
			q.removeAt(i)
			return
		}
	}
}

// expiryFIFO holds requests in arrival order, each beside the time it
// expires: the deadline elevators' starvation bound.
type expiryFIFO struct {
	reqs []expiring
}

type expiring struct {
	r  *Request
	at time.Duration
}

func (f *expiryFIFO) push(r *Request, at time.Duration) {
	f.reqs = append(f.reqs, expiring{r, at})
}

// expired returns the head request if its expiry has passed, else nil.
func (f *expiryFIFO) expired(now time.Duration) *Request {
	if len(f.reqs) > 0 && f.reqs[0].at <= now {
		return f.reqs[0].r
	}
	return nil
}

// remove deletes r (identity comparison) if it is queued.
func (f *expiryFIFO) remove(r *Request) {
	for i, e := range f.reqs {
		if e.r == r {
			copy(f.reqs[i:], f.reqs[i+1:])
			f.reqs[len(f.reqs)-1] = expiring{}
			f.reqs = f.reqs[:len(f.reqs)-1]
			return
		}
	}
}
