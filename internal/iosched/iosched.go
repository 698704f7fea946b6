// Package iosched models kernel block-layer I/O schedulers: NOOP, Deadline,
// and CFQ (the paper's default). A Dispatcher owns one disk.Device and runs
// the dispatch loop as a simulation Proc; submitters enqueue Requests and
// block until completion. The dispatcher is the block layer's one
// measurement point: it keeps the optional blktrace-style access log and
// records each access's time breakdown, as Access returns it, on the
// request's disk span.
//
// The property the paper's motivation depends on is reproduced faithfully:
// the scheduler can only reorder requests that are *outstanding at the same
// time*. Synchronous request streams with one request in flight per process
// give the elevator nothing to work with (Fig 1c); large pre-sorted batches
// let it stream in one direction (Fig 1d).
package iosched

import (
	"fmt"
	"time"

	"dualpar/internal/check"
	"dualpar/internal/disk"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// MaxMergeSectors bounds how large adjacent requests may grow by merging,
// mirroring the kernel's max_sectors_kb (512 KB here).
const MaxMergeSectors = 1024

// A Request is one block-layer request. Create it with the exported fields
// set; the Dispatcher fills in bookkeeping (the embedded completion signal
// needs no initialization).
type Request struct {
	LBN     int64
	Sectors int64
	Write   bool
	// Origin identifies the submitting context (process/program); CFQ
	// maintains one queue per origin.
	Origin int
	// Obs carries the originating request's trace identity (zero = untraced).
	Obs obs.Ctx

	arrival  time.Duration
	done     sim.Signal
	finished bool
	absorbed []*Request // requests merged into this one
}

// End returns the first LBN after the request.
func (r *Request) End() int64 { return r.LBN + r.Sectors }

// dropAbsorbed empties the merge list once its requests are handed on,
// clearing the references but keeping the backing array for the next merge.
func (r *Request) dropAbsorbed() {
	clear(r.absorbed)
	r.absorbed = r.absorbed[:0]
}

// Reset prepares a completed request for reuse, so submitters can pool
// Request records instead of allocating one per block run. The completion
// signal and the (empty) merge list keep their capacity; everything else
// returns to the zero state. Resetting a request that has not finished
// (still queued, dispatched, or absorbed into a pending merge) would leave
// a live alias and is a caller bug.
func (r *Request) Reset() {
	if !r.finished {
		panic("iosched: Reset of unfinished request")
	}
	done, absorbed := r.done, r.absorbed
	*r = Request{done: done, absorbed: absorbed[:0]}
}

// Algorithm is an elevator policy. Implementations are driven by a single
// Dispatcher Proc and need no locking.
type Algorithm interface {
	Name() string
	// Add inserts a request (possibly merging it into a pending one).
	Add(r *Request, now time.Duration)
	// Next picks the request to dispatch given the current time and the
	// LBN following the last dispatched request. If it returns nil with
	// idleUntil > 0 the dispatcher should wait until idleUntil (or a new
	// arrival) and ask again — this is CFQ anticipation. nil with zero
	// idleUntil means nothing is pending.
	Next(now time.Duration, head int64) (r *Request, idleUntil time.Duration)
	// Pending reports queued (not yet dispatched) requests.
	Pending() int
	// NotifyComplete informs the policy a dispatched request finished.
	NotifyComplete(r *Request, now time.Duration)
}

// Named returns a constructor for the elevator with the given name — "cfq",
// "deadline", "noop", or "anticipatory" — or nil for an unknown name.
func Named(name string) func() Algorithm {
	switch name {
	case "cfq":
		return func() Algorithm { return NewCFQ() }
	case "deadline":
		return func() Algorithm { return NewDeadline() }
	case "noop":
		return func() Algorithm { return NewNOOP() }
	case "anticipatory":
		return func() Algorithm { return NewAnticipatory() }
	}
	return nil
}

// Dispatcher owns a device and serves requests through an Algorithm.
type Dispatcher struct {
	k       *sim.Kernel
	dev     disk.Device
	alg     Algorithm
	arrival sim.Signal
	lastEnd int64
	served  int64
	track   string
	obs     *obs.Collector
	trace   *disk.Trace // nil unless EnableTrace

	// Audit state (nil audit = off). auditPending mirrors the elevator's
	// queued-request count from the outside; auditBytes sums sectors
	// dispatched to the device.
	audit        check.Ledger
	auditPending int64
	auditBytes   int64
}

// NewDispatcher creates a dispatcher and starts its dispatch Proc. name also
// serves as the dispatcher's trace track.
func NewDispatcher(k *sim.Kernel, name string, dev disk.Device, alg Algorithm) *Dispatcher {
	d := &Dispatcher{k: k, dev: dev, alg: alg, track: name}
	k.Spawn(name, d.loop)
	return d
}

// EnableTrace turns on blktrace-style logging into a fresh Trace: one entry
// per dispatched request, stamped with its dispatch time, in the device's
// address space (a RAID's logical LBNs, as blktrace reports for an md or
// hardware RAID block device).
func (d *Dispatcher) EnableTrace() *disk.Trace {
	d.trace = &disk.Trace{}
	return d.trace
}

// Trace returns the access log, or nil if tracing is disabled.
func (d *Dispatcher) Trace() *disk.Trace { return d.trace }

// SetObs attaches the observability collector: every dispatched request then
// records a StageDisk span on the dispatcher's track.
func (d *Dispatcher) SetObs(c *obs.Collector) { d.obs = c }

// SetAudit attaches the audit ledger. Every Enqueue then asserts the
// elevator's pending count moved by exactly 0 (merge) or 1 (insert), and the
// dispatch loop keeps an external mirror of the pending count (which must
// never go negative) plus a byte ledger of everything sent to the device.
func (d *Dispatcher) SetAudit(l check.Ledger) { d.audit = l }

// AuditDispatchedBytes reports the bytes dispatched to the device since the
// audit ledger was attached (sectors x 512).
func (d *Dispatcher) AuditDispatchedBytes() int64 { return d.auditBytes }

// Algorithm returns the elevator policy in use.
func (d *Dispatcher) Algorithm() Algorithm { return d.alg }

// Served reports the number of requests dispatched to the device.
func (d *Dispatcher) Served() int64 { return d.served }

// Enqueue adds a request without blocking. The request's completion can be
// awaited with Wait.
func (d *Dispatcher) Enqueue(r *Request) {
	if r.Sectors <= 0 {
		panic(fmt.Sprintf("iosched: empty request %+v", r))
	}
	r.arrival = d.k.Now()
	if d.obs.Enabled() {
		// Queue-entry instant: the analyzer reconstructs block-layer queueing
		// as [arrival, dispatch) from this plus the span's queue_ns arg.
		args := []obs.Arg{obs.I64("lbn", r.LBN), obs.I64("sectors", r.Sectors),
			obs.I64("origin", int64(r.Origin))}
		if r.Obs.Traced() {
			args = append(args, obs.I64("req", int64(r.Obs.ID)))
		}
		d.obs.Instant("disk.enqueue", d.track, r.arrival, args...)
	}
	if d.audit != nil {
		before := d.alg.Pending()
		d.alg.Add(r, d.k.Now())
		delta := d.alg.Pending() - before
		d.audit.Checkf(delta == 0 || delta == 1, "iosched.pending.delta",
			"%s: Add moved Pending by %d (LBN %d origin %d), want 0 or 1",
			d.track, delta, r.LBN, r.Origin)
		d.auditPending += int64(delta)
	} else {
		d.alg.Add(r, d.k.Now())
	}
	d.arrival.Broadcast()
}

// Submit enqueues r and blocks p until it completes.
func (d *Dispatcher) Submit(p *sim.Proc, r *Request) {
	d.Enqueue(r)
	d.Wait(p, r)
}

// Wait blocks p until r (previously enqueued) completes.
func (d *Dispatcher) Wait(p *sim.Proc, r *Request) {
	for !r.finished {
		r.done.Wait(p)
	}
}

// Done reports whether r has completed.
func (d *Dispatcher) Done(r *Request) bool { return r.finished }

func (d *Dispatcher) loop(p *sim.Proc) {
	for {
		r, idleUntil := d.alg.Next(p.Now(), d.lastEnd)
		if r == nil {
			if idleUntil > p.Now() {
				// Anticipation: wait for a same-origin arrival or the idle
				// window to expire.
				d.arrival.WaitTimeout(p, idleUntil-p.Now())
			} else {
				d.arrival.Wait(p)
			}
			continue
		}
		start := p.Now()
		if d.audit != nil {
			// Count before Access: the device updates its stats before any
			// sleep, so the two ledgers agree at every yield point.
			d.auditBytes += r.Sectors * 512
		}
		if d.trace != nil {
			d.trace.Add(disk.Entry{At: start, LBN: r.LBN, Sectors: r.Sectors, Write: r.Write})
		}
		bd := d.dev.Access(p, r.LBN, r.Sectors, r.Write)
		if d.obs.Enabled() {
			rw := "read"
			if r.Write {
				rw = "write"
			}
			d.obs.Span(r.Obs.ID, obs.StageDisk, d.track, start, p.Now(),
				obs.I64("lbn", r.LBN), obs.I64("sectors", r.Sectors), obs.Str("rw", rw),
				obs.I64("queue_us", int64((start-r.arrival)/time.Microsecond)),
				obs.I64("queue_ns", int64(start-r.arrival)),
				obs.I64("ovh_ns", int64(bd.Overhead)), obs.I64("seek_ns", int64(bd.Seek)),
				obs.I64("rot_ns", int64(bd.Rotation)), obs.I64("xfer_ns", int64(bd.Transfer)),
				obs.I64("origin", int64(r.Origin)))
		}
		d.lastEnd = r.End()
		d.served++
		d.alg.NotifyComplete(r, p.Now())
		if d.audit != nil {
			// One dispatch retires exactly one pending entry: absorbed merges
			// never entered the mirror (their Add deltas were 0).
			d.auditPending--
			d.audit.Checkf(d.auditPending >= 0, "iosched.pending.negative",
				"%s: pending mirror went negative after dispatch of LBN %d", d.track, r.LBN)
			d.audit.Checkf(d.auditPending == int64(d.alg.Pending()), "iosched.pending.mirror",
				"%s: pending mirror %d != elevator Pending %d", d.track, d.auditPending, d.alg.Pending())
		}
		d.complete(r)
	}
}

func (d *Dispatcher) complete(r *Request) {
	r.finished = true
	r.done.Broadcast()
	for _, a := range r.absorbed {
		a.finished = true
		a.done.Broadcast()
	}
	r.dropAbsorbed()
}
