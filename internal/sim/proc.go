package sim

import (
	"fmt"
	"time"
)

// A Proc is a simulated process: a goroutine whose execution is interleaved
// with virtual time under kernel control. Proc methods must only be called
// from the Proc's own goroutine (the function passed to Spawn).
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{} // its carrier's wake channel, set when it starts
	fn     func(*Proc)   // start function; nil once started, so a finished Proc holds no closure
	w      waiter        // reusable Signal wait record (a Proc waits on one thing at a time)

	lastNow time.Duration // audit only: virtual time observed at the last resume
}

// A carrier is the goroutine a Proc runs on. When its Proc finishes, it
// runs the Proc start it pops next itself, or else parks on the kernel's
// idle list until a start takes it or RunUntil releases it. A Proc start
// therefore creates a goroutine only when no carrier is idle.
type carrier struct {
	wake chan struct{}
	p    *Proc    // the Proc to start when woken from the idle list; nil releases it
	next *carrier // idle list link
}

// Spawn creates a Proc named name running fn, starting at the current
// virtual time. It may be called from kernel context (before Run) or from
// another Proc.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	return k.SpawnAt(k.now, name, fn)
}

// SpawnAt creates a Proc that starts at absolute virtual time at.
func (k *Kernel) SpawnAt(at time.Duration, name string, fn func(*Proc)) *Proc {
	p := &Proc{k: k, name: name, fn: fn}
	p.w.p = p
	p.w.timer = noEvent
	k.nprocs++
	p.wakeAt(at) // its first wake starts it
	return p
}

// start runs p's first wake on an idle carrier, or on a new one when none
// is idle. The caller holds the baton and hands it to p.
func (k *Kernel) start(p *Proc) {
	if c := k.idle; c != nil {
		k.idle, c.next = c.next, nil
		c.p = p
		c.wake <- struct{}{}
		return
	}
	go k.carry(&carrier{wake: make(chan struct{}), p: p})
}

// carry is the body of a carrier's goroutine. It runs Procs one after
// another, holding the baton from each start to each finish. A finished
// Proc runs the loop once more: a Proc start it pops runs here in place,
// anything else gets the baton while the carrier waits on the idle list.
func (k *Kernel) carry(c *carrier) {
	for p := c.p; p != nil; p = c.p {
		c.p = nil
		if !c.run(p) {
			return
		}
		q := k.nextOnProc()
		if q != nil && q.fn != nil {
			k.stats.Handoffs++
			c.p = q
			continue
		}
		c.next, k.idle = k.idle, c
		k.pass(q)
		<-c.wake
	}
}

// run runs p to completion on c and reports whether c may carry another
// Proc. A panic in p's code goes straight to the RunUntil caller, named
// after p, and ends the carrier; so does runtime.Goexit, after passing the
// baton on as a finish would.
func (c *carrier) run(p *Proc) (ok bool) {
	k := p.k
	defer func() {
		k.nprocs--
		if ok {
			return
		}
		if r := recover(); r != nil {
			k.failure = fmt.Sprintf("sim: proc %q panicked: %v", p.name, r)
			k.parked <- struct{}{}
			return
		}
		k.pass(k.nextOnProc())
	}()
	fn := p.fn
	p.fn = nil // a running Proc must not keep its start function reachable
	p.resume = c.wake
	fn(p)
	return true
}

// releaseIdle ends every idle carrier. Only the RunUntil caller, holding
// the baton, calls it.
func (k *Kernel) releaseIdle() {
	for c := k.idle; c != nil; c = k.idle {
		k.idle, c.next = c.next, nil
		c.wake <- struct{}{} // c.p is nil: the carrier returns
	}
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
	p.resumed()
}

// resumed is the audit's monotone check, run each time p resumes: the
// virtual time p observes must never move backwards.
func (p *Proc) resumed() {
	k := p.k
	if k.audit != nil {
		k.audit.Checkf(k.now >= p.lastNow, "sim.proc.monotone",
			"proc %s resumed at %v after observing %v", p.name, k.now, p.lastNow)
		p.lastNow = k.now
	}
}

// wakeAt schedules this Proc to resume at absolute time at. A wake event
// names its Proc, so scheduling one allocates nothing.
func (p *Proc) wakeAt(at time.Duration) {
	p.k.schedule(at, nil, p, false)
}

// expire is the expiry of p's one outstanding timed wait, run as a
// callback. A stale firing (the wait already ended, w may be serving a
// later wait) is impossible as long as WaitTimeout cancels losing timers,
// but the generation check keeps it a no-op regardless.
func (p *Proc) expire() {
	w := &p.w
	if w.seq != w.timerSeq || w.fired {
		return
	}
	w.fired, w.timedOut = true, true
	w.timer = noEvent
	p.wakeAt(p.k.now)
}

// Sleep suspends the Proc for duration d of virtual time.
//
// A lone sleep never enters the queue. When no queued event is due at or
// before the wake (the heap is empty or its earliest event is strictly
// later) and the RunUntil deadline allows it, the loop would pop this
// Proc's own wake straight back. The Proc instead spends the wake's seq,
// moves the clock and counts the self-resume the pop would have counted,
// so the event order, every later seq and Stats are what the queue round
// trip gives. Every other sleep schedules its wake and parks.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	k := p.k
	at := k.now + d
	if (len(k.heap) == 0 || k.arena[k.heap[0]].at > at) && (k.deadline < 0 || at <= k.deadline) {
		k.seq++
		k.now = at
		k.stats.SelfResumes++
		p.resumed()
		return
	}
	p.wakeAt(at)
	p.park()
}
