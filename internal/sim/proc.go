package sim

import "time"

// A Proc is a simulated process: a goroutine whose execution is interleaved
// with virtual time under kernel control. Proc methods must only be called
// from the Proc's own goroutine (the function passed to Spawn).
type Proc struct {
	k       *Kernel
	name    string
	resume  chan struct{}
	wake    func() // pre-built resume event callback, shared by every wakeAt
	timerFn func() // pre-built WaitTimeout expiry callback, shared by every timed wait
	w       waiter // reusable Signal wait record (a Proc waits on one thing at a time)

	lastNow time.Duration // audit only: virtual time observed at the last resume
}

// Spawn creates a Proc named name running fn, starting at the current
// virtual time. It may be called from kernel context (before Run) or from
// another Proc.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt creates a Proc that starts at absolute virtual time at.
func (k *Kernel) SpawnAt(at time.Duration, name string, fn func(*Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{})}
	p.wake = func() {
		p.resume <- struct{}{}
		<-p.k.parked
	}
	p.timerFn = func() {
		// Expiry of the one timed wait this Proc can have outstanding. A
		// stale firing (the wait already ended, w may be serving a later
		// wait) is impossible as long as WaitTimeout cancels losing timers,
		// but the generation check keeps it a no-op regardless.
		w := &p.w
		if w.seq != w.timerSeq || w.fired {
			return
		}
		w.fired, w.timedOut = true, true
		w.timer = noEvent
		p.wakeAt(p.k.now)
	}
	p.w.p = p
	p.w.timer = noEvent
	k.nprocs++
	k.schedule(at, func() {
		go func() {
			defer func() {
				if r := recover(); r != nil && k.failure == nil {
					k.failure = &procPanic{proc: p.name, value: r}
				}
				k.nprocs--
				k.parked <- struct{}{} // hand control back to the kernel
			}()
			fn(p)
		}()
		<-k.parked
	})
	return p
}

// Name returns the Proc's name.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this Proc runs under.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// park hands control to the kernel and blocks until resumed by a scheduled
// wake event.
func (p *Proc) park() {
	p.k.parked <- struct{}{}
	<-p.resume
	if p.k.audit != nil {
		p.k.audit.Checkf(p.k.now >= p.lastNow, "sim.proc.monotone",
			"proc %s resumed at %v after observing %v", p.name, p.k.now, p.lastNow)
		p.lastNow = p.k.now
	}
}

// wake schedules this Proc to resume at absolute time at. It runs in kernel
// context. The resume callback is built once per Proc (a Proc has at most
// one pending wake), so scheduling a wake allocates nothing.
func (p *Proc) wakeAt(at time.Duration) {
	p.k.schedule(at, p.wake)
}

// Sleep suspends the Proc for duration d of virtual time.
//
// Solo fast path: when nothing else is runnable in [now, now+d] — the
// same-instant FIFO is empty, the earliest heap event is strictly later
// than the wake would be, and the RunUntil deadline is not in between —
// handing control to the kernel would only pop this Proc's own wake event
// straight back. In that case the Proc advances the clock in place and
// keeps running, skipping the two goroutine switches of the park/resume
// handshake. The event timeline is identical:
// by construction no event exists in the skipped window, and relative
// schedule order (which decides same-instant ties) is unchanged.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	k := p.k
	at := k.now + d
	if k.fifoHead >= len(k.fifo) &&
		(len(k.heap) == 0 || k.arena[k.heap[0]].at > at) &&
		(k.deadline < 0 || at <= k.deadline) {
		k.now = at
		if k.audit != nil {
			k.audit.Checkf(k.now >= p.lastNow, "sim.proc.monotone",
				"proc %s resumed at %v after observing %v", p.name, k.now, p.lastNow)
			p.lastNow = k.now
		}
		return
	}
	p.wakeAt(at)
	p.park()
}
