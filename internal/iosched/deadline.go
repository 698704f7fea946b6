package iosched

import "time"

// Deadline models the kernel deadline elevator: requests are served in
// ascending LBN order (C-SCAN), but each request also sits in a FIFO with
// an expiry; when a FIFO head expires the elevator jumps to it, bounding
// starvation.
type Deadline struct {
	sorted        sortedQueue
	reads, writes expiryFIFO
}

// The kernel-default expiries.
const (
	deadlineReadExpire  = 500 * time.Millisecond
	deadlineWriteExpire = 5 * time.Second
)

// NewDeadline returns a deadline elevator with kernel-default tunables.
func NewDeadline() *Deadline { return &Deadline{} }

// Name implements Algorithm.
func (d *Deadline) Name() string { return "deadline" }

// Add implements Algorithm.
func (d *Deadline) Add(r *Request, now time.Duration) {
	if d.sorted.insert(r) {
		return // merged into an existing request
	}
	if r.Write {
		d.writes.push(r, now+deadlineWriteExpire)
	} else {
		d.reads.push(r, now+deadlineReadExpire)
	}
}

// Next implements Algorithm.
func (d *Deadline) Next(now time.Duration, head int64) (*Request, time.Duration) {
	if d.sorted.len() == 0 {
		return nil, 0
	}
	// An expired FIFO head, reads first, preempts the sweep.
	r := d.reads.expired(now)
	if r == nil {
		r = d.writes.expired(now)
	}
	if r != nil {
		d.sorted.remove(r)
	} else {
		r = d.sorted.nextFrom(head)
	}
	if r.Write {
		d.writes.remove(r)
	} else {
		d.reads.remove(r)
	}
	return r, 0
}

// Pending implements Algorithm.
func (d *Deadline) Pending() int { return d.sorted.len() }

// NotifyComplete implements Algorithm.
func (d *Deadline) NotifyComplete(r *Request, now time.Duration) {}
