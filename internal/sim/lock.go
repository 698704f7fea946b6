package sim

// A Lock is a mutex in virtual time with FIFO handoff: Release passes the
// lock straight to the longest-waiting Proc and wakes it at the current
// instant, so a Proc that asks later, even at that same instant, cannot
// barge ahead of it. The zero value is an unlocked Lock.
type Lock struct {
	holder  *Proc
	waiters []*Proc
}

// Acquire blocks p until it holds the lock.
func (l *Lock) Acquire(p *Proc) {
	if l.holder == nil {
		l.holder = p
		return
	}
	l.waiters = append(l.waiters, p)
	p.park()
	if l.holder != p {
		panic("sim: lock waiter woken without the lock")
	}
}

// Release hands the lock to the head waiter, if any, or unlocks it.
func (l *Lock) Release() {
	if l.holder == nil {
		panic("sim: release of an unheld lock")
	}
	if len(l.waiters) == 0 {
		l.holder = nil
		return
	}
	next := l.waiters[0]
	l.waiters[0] = nil
	l.waiters = l.waiters[1:]
	l.holder = next
	next.wakeAt(next.k.now)
}
