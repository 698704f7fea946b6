// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel.
//
// A Kernel advances a virtual clock by executing events in (time, sequence)
// order. Simulated activities are written as ordinary Go functions running in
// Procs; a Proc blocks in virtual time with Sleep, Signal.Wait, Queue.Get,
// or Resource.Acquire. Each Proc runs on a goroutine of its own, a carrier
// that it takes over from a finished Proc when one is idle, and control is a
// baton: exactly one goroutine — the RunUntil caller or one Proc — holds it
// and runs the event loop at any instant, so simulations are fully
// deterministic: the same program and seed yield the same event order and
// results. One 4-ary heap over (time, sequence) is the only event queue:
// every wake and callback goes through it. A lone Sleep, with no event due
// at or before its wake, advances the clock in place instead: the queue
// round trip would pop its own wake straight back. A Proc that blocks keeps
// the baton and runs the loop itself, executing plain callbacks inline
// until an event wakes a Proc. Its own wake returns without a switch;
// another Proc's wake passes the baton straight to that Proc's goroutine,
// one goroutine switch per resume. When no event at or before the deadline
// remains, the holder passes the baton back to the RunUntil caller, which
// then releases the idle carriers.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"dualpar/internal/check"
)

// event is a scheduled callback or Proc wake in virtual time. Events live in
// the kernel's flat arena and are addressed by index everywhere — the
// priority queue and the free list both hold arena indices, never pointers,
// so the scheduler moves 4-byte ints instead of boxed interface values and a
// recycled slot is a free-list push.
type event struct {
	at     time.Duration
	seq    uint64
	fn     func()
	p      *Proc // non-nil: a wake event that starts or resumes p (fn is nil)
	pos    int32 // index in Kernel.heap; read only while the event is in it
	expiry bool  // with p: the expiry of p's WaitTimeout, run as a callback
}

// eventID names one scheduled event for cancellation. The generation
// (seq) guards against the arena slot having been recycled: cancel is a
// no-op unless the slot still holds exactly the named event.
type eventID struct {
	idx int32
	seq uint64
}

// noEvent is the invalid eventID (the zero value would name arena slot 0).
var noEvent = eventID{idx: -1}

// Kernel is a discrete-event simulation. The zero value is not usable; create
// one with NewKernel.
type Kernel struct {
	now   time.Duration
	seq   uint64
	arena []event // flat event storage; heap/free hold indices into it

	// heap is an index-based 4-ary min-heap over (at, seq), the one event
	// queue. Quadrupling the fan-out halves the levels a pop sifts through,
	// and the four child indices it compares per level share one cache line.
	heap []int32

	free    []int32 // recycled arena slots
	pending int     // scheduled events not yet run or canceled

	// deadline is the active RunUntil deadline (-1 = unbounded), read by the
	// event loop and by a Proc's lone Sleep on whichever goroutine holds the
	// baton.
	deadline time.Duration

	// parked passes the baton back to the RunUntil caller: the Proc holding
	// it sends once the loop drains or reaches the deadline, or once a
	// panic ends the run, and failure then holds the panic to re-raise.
	parked  chan struct{}
	failure interface{}
	nprocs  int      // live (spawned, not yet finished) procs
	idle    *carrier // carriers whose Proc finished, waiting for a start (a stack)
	stats   Stats
	rng     *rand.Rand
	audit   check.Ledger // nil unless a run auditor is attached
}

// Stats counts the kernel's own work since NewKernel. The counts are exact:
// two runs of one program at one seed give identical Stats.
type Stats struct {
	Events      uint64 // events run: Callbacks + Handoffs + SelfResumes
	Callbacks   uint64 // plain callbacks run inline (After, timer expiries)
	Handoffs    uint64 // wakes that passed the baton to another Proc, starts included
	SelfResumes uint64 // wakes popped by the Proc they wake, lone Sleeps included: no switch
}

// Stats returns the kernel's self-counters.
func (k *Kernel) Stats() Stats {
	s := k.stats
	s.Events = s.Callbacks + s.Handoffs + s.SelfResumes
	return s
}

// SetAudit attaches an audit ledger: every Proc then verifies on resume that
// its observed virtual time never moves backwards. Nil (the default) costs
// one pointer comparison per park and keeps the hot paths allocation-free.
func (k *Kernel) SetAudit(l check.Ledger) { k.audit = l }

// NewKernel returns a kernel with its clock at zero and a deterministic
// random source derived from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{
		deadline: -1,
		parked:   make(chan struct{}),
		rng:      rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from kernel or Proc context.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// schedule enqueues fn to run at absolute virtual time at, or with fn nil a
// wake of p (the expiry of p's WaitTimeout when expiry is set), and returns
// its id for cancel. Arena slots are recycled through the free list: the
// run loop returns each popped slot before its callback executes, so a
// steady-state simulation stops allocating event records entirely.
func (k *Kernel) schedule(at time.Duration, fn func(), p *Proc, expiry bool) eventID {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, k.now))
	}
	var idx int32
	if n := len(k.free); n > 0 {
		idx = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.arena = append(k.arena, event{})
		idx = int32(len(k.arena) - 1)
	}
	e := &k.arena[idx]
	e.at, e.seq, e.fn, e.p, e.expiry = at, k.seq, fn, p, expiry
	k.seq++
	k.pending++
	k.heapPush(idx)
	return eventID{idx: idx, seq: e.seq}
}

// cancel removes a scheduled event before it fires. Canceling an event that
// already ran, was already canceled, or whose slot has been recycled is a
// no-op, so callers may cancel stale ids freely.
func (k *Kernel) cancel(id eventID) {
	if id.idx < 0 || int(id.idx) >= len(k.arena) {
		return
	}
	e := &k.arena[id.idx]
	if e.seq != id.seq || (e.fn == nil && e.p == nil) {
		return
	}
	k.pending--
	k.heapRemove(int(e.pos))
	k.freeSlot(id.idx)
}

// freeSlot recycles an arena slot.
func (k *Kernel) freeSlot(idx int32) {
	e := &k.arena[idx]
	e.fn, e.p = nil, nil
	k.free = append(k.free, idx)
}

// After schedules fn to run in kernel context after delay d. fn must not
// block in virtual time; use Spawn for blocking activities.
func (k *Kernel) After(d time.Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	k.schedule(k.now+d, fn, nil, false)
}

// Run executes events until none remain. A panic in a callback or a Proc
// is re-raised on the caller's goroutine; a Proc's is wrapped with its name.
func (k *Kernel) Run() {
	k.RunUntil(-1)
}

// RunUntil executes events with timestamps <= deadline. A negative deadline
// means run to completion. Once no runnable event at or before the deadline
// remains, the clock is fast-forwarded to the deadline. Events beyond the
// deadline stay queued for later Run/RunUntil calls.
//
// The caller holds the baton until an event wakes a Proc; from then on the
// Procs run the loop, and the caller only waits for the baton to come back.
// It then releases the idle carriers, so between runs the kernel holds a
// goroutine only for each Proc that is still live.
func (k *Kernel) RunUntil(deadline time.Duration) {
	k.deadline = deadline
	if p := k.next(); p != nil {
		k.pass(p)
		<-k.parked
		k.releaseIdle()
		if f := k.failure; f != nil {
			k.failure = nil
			panic(f)
		}
	}
	if deadline >= 0 && k.now < deadline {
		k.now = deadline
	}
}

// next is the event loop, run by whichever goroutine holds the baton. It
// executes events in (at, seq) order, plain callbacks and timed-wait
// expiries inline, until one wakes a Proc, and returns that Proc. It
// returns nil once no event at or before the deadline remains.
func (k *Kernel) next() *Proc {
	deadline := k.deadline
	for {
		if len(k.heap) == 0 {
			return nil
		}
		if deadline >= 0 && k.arena[k.heap[0]].at > deadline {
			return nil
		}
		idx := k.heapPopTop()
		e := &k.arena[idx]
		k.now = e.at
		fn, p, expiry := e.fn, e.p, e.expiry
		k.pending--
		k.freeSlot(idx) // recycle before running: fn's own schedules reuse it
		switch {
		case p == nil:
			k.stats.Callbacks++
			fn()
		case expiry:
			k.stats.Callbacks++
			p.expire()
		default:
			return p
		}
	}
}

// nextOnProc is next for a Proc's goroutine. A callback that panics there
// must not unwind into the Proc's code, which would report it as the Proc's
// panic: its value goes straight to the RunUntil caller, and this
// goroutine, whose Proc can no longer be resumed consistently, blocks for
// good.
func (k *Kernel) nextOnProc() *Proc {
	defer func() {
		if r := recover(); r != nil {
			k.failure = r
			k.parked <- struct{}{}
			select {}
		}
	}()
	return k.next()
}

// pass hands the baton to p: it starts p on a carrier or resumes it, or
// with p nil returns the baton to the RunUntil caller. The caller must not
// touch kernel state afterwards until the baton comes back.
func (k *Kernel) pass(p *Proc) {
	if p == nil {
		k.parked <- struct{}{}
		return
	}
	k.stats.Handoffs++
	if p.fn != nil {
		k.start(p)
		return
	}
	p.resume <- struct{}{}
}

// Pending reports the number of queued events.
func (k *Kernel) Pending() int { return k.pending }

// Live reports the number of spawned Procs that have not yet finished.
func (k *Kernel) Live() int { return k.nprocs }

// The heap is a 4-ary min-heap of arena indices ordered by (at, seq):
// children of slot i live at 4i+1..4i+4. seq values are unique, so the
// order is total and ties never arise.

// heapPush inserts an arena index.
func (k *Kernel) heapPush(idx int32) {
	k.heap = append(k.heap, idx)
	k.siftUp(len(k.heap) - 1)
}

// heapPopTop removes and returns the minimum element's arena index.
func (k *Kernel) heapPopTop() int32 {
	h := k.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	k.heap = h[:last]
	if last > 0 {
		k.siftDown(0)
	}
	return top
}

// heapRemove deletes the element at heap position i (cancel's path).
func (k *Kernel) heapRemove(i int) {
	h := k.heap
	last := len(h) - 1
	moved := h[last]
	k.heap = h[:last]
	if i == last {
		return
	}
	h[i] = moved
	k.arena[moved].pos = int32(i)
	k.siftDown(i)
	k.siftUp(int(k.arena[moved].pos))
}

// siftUp restores heap order upward from position i.
func (k *Kernel) siftUp(i int) {
	h := k.heap
	idx := h[i]
	e := &k.arena[idx]
	for i > 0 {
		parent := (i - 1) / 4
		pe := &k.arena[h[parent]]
		if pe.at < e.at || (pe.at == e.at && pe.seq < e.seq) {
			break
		}
		h[i] = h[parent]
		k.arena[h[i]].pos = int32(i)
		i = parent
	}
	h[i] = idx
	e.pos = int32(i)
}

// siftDown restores heap order downward from position i.
func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	idx := h[i]
	e := &k.arena[idx]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		be := &k.arena[h[c]]
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			je := &k.arena[h[j]]
			if je.at < be.at || (je.at == be.at && je.seq < be.seq) {
				best, be = j, je
			}
		}
		if e.at < be.at || (e.at == be.at && e.seq < be.seq) {
			break
		}
		h[i] = h[best]
		k.arena[h[i]].pos = int32(i)
		i = best
	}
	h[i] = idx
	e.pos = int32(i)
}
