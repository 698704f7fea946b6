package iosched

import "time"

// NOOP dispatches in arrival (FIFO) order, with back-merging of requests
// that arrive contiguously, like the kernel's noop elevator.
type NOOP struct {
	fifo []*Request
}

// NewNOOP returns a NOOP elevator.
func NewNOOP() *NOOP { return &NOOP{} }

// Name implements Algorithm.
func (n *NOOP) Name() string { return "noop" }

// Add implements Algorithm.
func (n *NOOP) Add(r *Request, now time.Duration) {
	if i := len(n.fifo) - 1; i >= 0 && adjacent(n.fifo[i], r) {
		n.fifo[i].absorb(r)
		return
	}
	n.fifo = append(n.fifo, r)
}

// Next implements Algorithm.
func (n *NOOP) Next(now time.Duration, head int64) (*Request, time.Duration) {
	if len(n.fifo) == 0 {
		return nil, 0
	}
	r := n.fifo[0]
	copy(n.fifo, n.fifo[1:])
	n.fifo[len(n.fifo)-1] = nil
	n.fifo = n.fifo[:len(n.fifo)-1]
	return r, 0
}

// Pending implements Algorithm.
func (n *NOOP) Pending() int { return len(n.fifo) }

// NotifyComplete implements Algorithm.
func (n *NOOP) NotifyComplete(r *Request, now time.Duration) {}
