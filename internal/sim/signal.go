package sim

import "time"

// A Signal is a broadcast condition variable in virtual time. Procs block on
// Wait or WaitTimeout; Broadcast wakes every currently blocked waiter. A
// Signal has no memory: a Broadcast with no waiters is a no-op.
//
// The zero value is ready to use — the kernel is reached through the
// waiting Procs — so per-request structs embed a Signal by value instead of
// allocating one per request.
type Signal struct {
	waiters []waiterRef
}

// waiter is a Proc's wait record. Each Proc owns exactly one (it can only
// wait on one thing at a time), embedded in the Proc and reused across
// waits, so blocking on a Signal allocates nothing. The seq field
// distinguishes the current wait from records left behind in old waiter
// lists or captured by expired timeout timers.
type waiter struct {
	p        *Proc
	seq      uint64
	fired    bool // woken by Broadcast or timeout; skip further wakes
	timedOut bool

	// timer is the pending WaitTimeout expiry event (noEvent when none) and
	// timerSeq the wait generation it was armed for. A Broadcast-won wait
	// cancels its timer on resume so dead timers never linger in the event
	// queue.
	timer    eventID
	timerSeq uint64
}

// waiterRef is one entry in a Signal's waiter list: the Proc's wait record
// plus the wait generation it was enqueued under. A record whose generation
// has moved on belongs to a later wait (possibly on another Signal) and must
// be ignored.
type waiterRef struct {
	w   *waiter
	seq uint64
}

// arm resets p's wait record for a fresh wait and enqueues it. Before the
// list would grow, it drops the refs Broadcast and Wake would skip (waits
// that timed out, were woken, or moved on), keeping the rest in order, so
// a Signal that only ever times out stays bounded by its live waiters.
func (s *Signal) arm(p *Proc) *waiter {
	if len(s.waiters) == cap(s.waiters) {
		live := s.waiters[:0]
		for _, ref := range s.waiters {
			if ref.w.seq == ref.seq && !ref.w.fired {
				live = append(live, ref)
			}
		}
		clear(s.waiters[len(live):])
		s.waiters = live
	}
	w := &p.w
	w.seq++
	w.fired, w.timedOut = false, false
	s.waiters = append(s.waiters, waiterRef{w: w, seq: w.seq})
	return w
}

// Wait blocks p until the next Broadcast.
func (s *Signal) Wait(p *Proc) {
	s.arm(p)
	p.park()
}

// WaitTimeout blocks p until the next Broadcast or until d elapses,
// whichever comes first. It reports whether the Proc was woken by a
// Broadcast (false means the wait timed out).
func (s *Signal) WaitTimeout(p *Proc, d time.Duration) bool {
	if d < 0 {
		panic("sim: negative timeout")
	}
	w := s.arm(p)
	w.timerSeq = w.seq
	w.timer = p.k.schedule(p.k.now+d, nil, p, true)
	p.park()
	if !w.timedOut {
		// Broadcast won the race: the expiry event is dead weight — cancel
		// it so watchdog-heavy runs don't carry armies of spent timers in
		// the queue until they fire as no-ops.
		p.k.cancel(w.timer)
		w.timer = noEvent
	}
	w.timerSeq = 0 // wait generations start at 1; 0 can never match
	return !w.timedOut
}

// Broadcast wakes all Procs currently blocked on the Signal. Wakeups are
// scheduled at the current time, after events already queued at this
// instant. Broadcast may be called from kernel or Proc context.
func (s *Signal) Broadcast() {
	// Strict alternation means no Wait can run mid-iteration, so the list
	// can be truncated in place and its backing array reused.
	for _, ref := range s.waiters {
		if ref.w.seq != ref.seq || ref.w.fired {
			continue
		}
		ref.w.fired = true
		ref.w.p.wakeAt(ref.w.p.k.now)
	}
	s.waiters = s.waiters[:0]
}

// Wake wakes up to n Procs currently blocked on the Signal, oldest waits
// first, and reports how many it woke. Waiters not woken stay queued in
// order. Queues use it to wake exactly one getter per item: under a full
// Broadcast the herd's extra waiters wake at the same instant, find nothing,
// and re-arm in the same relative order — identical outcome, minus the
// spurious park/resume round trips.
func (s *Signal) Wake(n int) int {
	woken := 0
	i := 0
	for ; i < len(s.waiters) && woken < n; i++ {
		ref := s.waiters[i]
		if ref.w.seq != ref.seq || ref.w.fired {
			continue
		}
		ref.w.fired = true
		ref.w.p.wakeAt(ref.w.p.k.now)
		woken++
	}
	m := copy(s.waiters, s.waiters[i:])
	s.waiters = s.waiters[:m]
	return woken
}

// WaiterCount reports how many Procs are currently blocked on the Signal.
func (s *Signal) WaiterCount() int {
	n := 0
	for _, ref := range s.waiters {
		if ref.w.seq == ref.seq && !ref.w.fired {
			n++
		}
	}
	return n
}
