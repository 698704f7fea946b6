package iosched

import "sort"

// sortedQueue keeps pending requests in ascending LBN order and performs
// front/back merging of adjacent same-direction requests.
type sortedQueue struct {
	reqs []*Request
}

func (q *sortedQueue) len() int { return len(q.reqs) }

// insert adds r, merging with an adjacent pending request when possible.
// It reports whether r was absorbed into an existing request.
func (q *sortedQueue) insert(r *Request) bool {
	i := sort.Search(len(q.reqs), func(i int) bool { return q.reqs[i].LBN >= r.LBN })
	// Back merge: predecessor ends exactly where r starts.
	if i > 0 {
		prev := q.reqs[i-1]
		if prev.Write == r.Write && prev.End() == r.LBN && prev.Sectors+r.Sectors <= MaxMergeSectors {
			prev.Sectors += r.Sectors
			prev.absorbed = append(prev.absorbed, r)
			prev.absorbed = append(prev.absorbed, r.absorbed...)
			r.dropAbsorbed()
			return true
		}
	}
	// Front merge: r ends exactly where successor starts.
	if i < len(q.reqs) {
		next := q.reqs[i]
		if next.Write == r.Write && r.End() == next.LBN && next.Sectors+r.Sectors <= MaxMergeSectors {
			next.LBN = r.LBN
			next.Sectors += r.Sectors
			next.absorbed = append(next.absorbed, r)
			next.absorbed = append(next.absorbed, r.absorbed...)
			r.dropAbsorbed()
			return true
		}
	}
	q.reqs = append(q.reqs, nil)
	copy(q.reqs[i+1:], q.reqs[i:])
	q.reqs[i] = r
	return false
}

// nextFrom removes and returns the first request at or after head; if none,
// it wraps to the lowest LBN (C-SCAN order).
func (q *sortedQueue) nextFrom(head int64) *Request {
	if len(q.reqs) == 0 {
		return nil
	}
	i := sort.Search(len(q.reqs), func(i int) bool { return q.reqs[i].LBN >= head })
	if i == len(q.reqs) {
		i = 0
	}
	return q.removeAt(i)
}

// peekFrom returns (without removing) what nextFrom would pick.
func (q *sortedQueue) peekFrom(head int64) *Request {
	if len(q.reqs) == 0 {
		return nil
	}
	i := sort.Search(len(q.reqs), func(i int) bool { return q.reqs[i].LBN >= head })
	if i == len(q.reqs) {
		i = 0
	}
	return q.reqs[i]
}

func (q *sortedQueue) removeAt(i int) *Request {
	r := q.reqs[i]
	copy(q.reqs[i:], q.reqs[i+1:])
	q.reqs[len(q.reqs)-1] = nil
	q.reqs = q.reqs[:len(q.reqs)-1]
	return r
}

// remove deletes a specific request (identity comparison); it reports
// whether it was found.
func (q *sortedQueue) remove(r *Request) bool {
	for i, x := range q.reqs {
		if x == r {
			q.removeAt(i)
			return true
		}
	}
	return false
}
