package sim

import (
	"fmt"
	"time"
)

// A Proc is a simulated process: a goroutine whose execution is interleaved
// with virtual time under kernel control. Proc methods must only be called
// from the Proc's own goroutine (the function passed to Spawn).
type Proc struct {
	k       *Kernel
	name    string
	resume  chan struct{}
	fn      func(*Proc) // start function; nil once started, so a finished Proc holds no closure
	timerFn func()      // pre-built WaitTimeout expiry callback, shared by every timed wait
	w       waiter      // reusable Signal wait record (a Proc waits on one thing at a time)

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
	p := &Proc{k: k, name: name, fn: fn, resume: make(chan struct{})}
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
	p.wakeAt(at) // its first wake starts it
	return p
}

// run is the body of a Proc's goroutine.
func (p *Proc) run(fn func(*Proc)) {
	defer p.exit()
	fn(p)
}

// exit ends a Proc, on its own goroutine, holding the baton: it runs the
// loop once more and passes the baton on, then the goroutine returns. A
// panic in the Proc's code goes straight to the RunUntil caller instead.
func (p *Proc) exit() {
	k := p.k
	k.nprocs--
	if r := recover(); r != nil {
		k.failure = fmt.Sprintf("sim: proc %q panicked: %v", p.name, r)
		k.parked <- struct{}{}
		return
	}
	k.pass(k.nextOnProc())
}

// Name returns the Proc's name.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this Proc runs under.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// park blocks p until its wake event runs. p keeps the baton and runs the
// event loop itself: if the next wake is its own it returns at once;
// otherwise it passes the baton to the woken Proc (or back to the RunUntil
// caller) and waits for it to come back.
func (p *Proc) park() {
	k := p.k
	if q := k.nextOnProc(); q != p {
		k.pass(q)
		<-p.resume
	} else {
		k.stats.SelfResumes++
	}
	if k.audit != nil {
		k.audit.Checkf(k.now >= p.lastNow, "sim.proc.monotone",
			"proc %s resumed at %v after observing %v", p.name, k.now, p.lastNow)
		p.lastNow = k.now
	}
}

// wakeAt schedules this Proc to resume at absolute time at. A wake event
// names its Proc, so scheduling one allocates nothing.
func (p *Proc) wakeAt(at time.Duration) {
	p.k.schedule(at, nil, p)
}

// Sleep suspends the Proc for duration d of virtual time. When nothing else
// runs in between, the loop pops the Proc's own wake and park returns
// without a goroutine switch.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	p.wakeAt(p.k.now + d)
	p.park()
}
