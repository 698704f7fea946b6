package iosched

import "time"

// CFQ models the Completely Fair Queueing elevator, the paper's kernel
// default. Each origin (process) gets its own LBN-sorted queue; queues are
// served round-robin in time slices; when the active queue drains, CFQ
// *anticipates* — idles up to cfqIdleWindow waiting for the next request from
// the same origin (if that origin's think time is short) before switching.
//
// The consequence the paper builds on: CFQ never merges service across
// origins, so interleaved synchronous streams from many processes produce
// back-and-forth head movement no matter how much locality exists across the
// streams, while a single origin submitting a large sorted batch is served
// in one sweep.
type CFQ struct {
	queues map[int]*cfqQueue
	order  []int // round-robin rotation of origins
	active int   // origin owning the current slice; -1 if none
	slice  time.Duration
	idleBy time.Duration
	count  int
}

type cfqQueue struct {
	origin       int
	q            sortedQueue
	lastComplete time.Duration
	everServed   bool
	inflight     int           // dispatched to the device, not yet completed
	think        time.Duration // EWMA of completion-to-next-arrival gap
}

// Kernel-default tunables.
const (
	// cfqSlice is an origin's time slice (slice_sync).
	cfqSlice = 100 * time.Millisecond
	// cfqIdleWindow is how long CFQ anticipates the active origin's next
	// request (slice_idle).
	cfqIdleWindow = 8 * time.Millisecond
)

// NewCFQ returns a CFQ elevator with kernel-default tunables.
func NewCFQ() *CFQ {
	return &CFQ{queues: make(map[int]*cfqQueue), active: -1}
}

// Name implements Algorithm.
func (c *CFQ) Name() string { return "cfq" }

// Add implements Algorithm.
func (c *CFQ) Add(r *Request, now time.Duration) {
	q := c.queues[r.Origin]
	if q == nil {
		q = &cfqQueue{origin: r.Origin}
		c.queues[r.Origin] = q
		c.order = append(c.order, r.Origin)
	}
	// Think time is the gap between a completion and the origin's *next*
	// submission. With a request still in flight that gap has not started,
	// so sampling here would fold the device's service time into the EWMA
	// and make a perfectly synchronous pipelined origin look seeky.
	if q.q.len() == 0 && q.inflight == 0 && q.everServed {
		sample := now - q.lastComplete
		q.think = (q.think*7 + sample) / 8
	}
	if !q.q.insert(r) {
		c.count++
	}
}

// Next implements Algorithm.
func (c *CFQ) Next(now time.Duration, head int64) (*Request, time.Duration) {
	if c.count == 0 && c.active == -1 {
		return nil, 0
	}
	if c.active != -1 {
		q := c.queues[c.active]
		expired := now-c.slice >= cfqSlice
		switch {
		case q.q.len() > 0 && !expired:
			return c.take(q, head), 0
		case q.q.len() == 0 && !expired && q.think <= cfqIdleWindow && now < c.idleBy:
			// Anticipate the origin's next request.
			return nil, c.idleBy
		default:
			c.deactivate()
		}
	}
	// Select the next origin with pending work, in rotation order.
	for i, origin := range c.order {
		q := c.queues[origin]
		if q.q.len() == 0 {
			continue
		}
		// Rotate so this origin is at the front (it will move to the back
		// when deactivated).
		rot := append([]int(nil), c.order[i:]...)
		c.order = append(rot, c.order[:i]...)
		c.active = origin
		c.slice = now
		return c.take(q, head), 0
	}
	return nil, 0
}

func (c *CFQ) take(q *cfqQueue, head int64) *Request {
	r := q.q.nextFrom(head)
	c.count--
	q.inflight++
	return r
}

func (c *CFQ) deactivate() {
	if c.active == -1 {
		return
	}
	// Move the active origin to the back of the rotation.
	for i, origin := range c.order {
		if origin == c.active {
			c.order = append(c.order[:i], c.order[i+1:]...)
			c.order = append(c.order, origin)
			break
		}
	}
	c.active = -1
	// The idle deadline belongs to the slice that just ended; a later slice
	// must not anticipate (or give up) against it.
	c.idleBy = 0
}

// Pending implements Algorithm.
func (c *CFQ) Pending() int { return c.count }

// NotifyComplete implements Algorithm.
func (c *CFQ) NotifyComplete(r *Request, now time.Duration) {
	q := c.queues[r.Origin]
	if q == nil {
		return
	}
	q.lastComplete = now
	q.everServed = true
	if q.inflight > 0 {
		q.inflight--
	}
	// Arm the idle window only once the current slice's last request has
	// completed; with requests still in flight the origin has not gone
	// quiet, and the window would start (and possibly expire) too early.
	if r.Origin == c.active && q.q.len() == 0 && q.inflight == 0 {
		c.idleBy = now + cfqIdleWindow
	}
}
