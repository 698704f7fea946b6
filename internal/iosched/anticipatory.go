package iosched

import "time"

// Anticipatory models the Linux anticipatory scheduler (the paper's ref
// [17], Iyer & Druschel's framework against deceptive idleness): a one-way
// elevator that, after serving a synchronous read, deliberately keeps the
// disk idle for a short window if the just-served process is expected to
// issue a nearby request — even while other requests are pending.
//
// Unlike CFQ there are no per-process queues or time slices: anticipation
// is per-request, keyed on the last served origin's think time and seek
// proximity history.
type Anticipatory struct {
	sorted sortedQueue
	writes expiryFIFO

	lastOrigin   int
	lastEnd      int64
	lastComplete time.Duration
	haveLast     bool
	origins      map[int]*originStats
}

type originStats struct {
	think    time.Duration // EWMA completion-to-next-request gap
	seekDist int64         // EWMA distance from last served position
	samples  int
}

// Kernel-like tunables.
const (
	// anticIdleWindow is how long the disk may idle for the last origin
	// (antic_expire, ~6 ms).
	anticIdleWindow = 6 * time.Millisecond
	// anticWriteExpire bounds how long a write waits.
	anticWriteExpire = 5 * time.Second
)

// NewAnticipatory returns an anticipatory elevator with kernel-like
// tunables.
func NewAnticipatory() *Anticipatory {
	return &Anticipatory{origins: make(map[int]*originStats)}
}

// Name implements Algorithm.
func (a *Anticipatory) Name() string { return "anticipatory" }

// Add implements Algorithm.
func (a *Anticipatory) Add(r *Request, now time.Duration) {
	// Track the submitting origin's think time before merging.
	st := a.origins[r.Origin]
	if st == nil {
		st = &originStats{}
		a.origins[r.Origin] = st
	}
	if a.haveLast && r.Origin == a.lastOrigin {
		gap := now - a.lastComplete
		st.think = (st.think*3 + gap) / 4
		d := r.LBN - a.lastEnd
		if d < 0 {
			d = -d
		}
		st.seekDist = (st.seekDist*3 + d) / 4
		st.samples++
	}
	if a.sorted.insert(r) {
		return
	}
	if r.Write {
		a.writes.push(r, now+anticWriteExpire)
	}
}

// anticipating reports whether the scheduler should hold the disk idle for
// the last origin: short think time and historically near requests.
func (a *Anticipatory) anticipating() bool {
	if !a.haveLast {
		return false
	}
	st := a.origins[a.lastOrigin]
	if st == nil || st.samples < 2 {
		return true // optimistic at first, like the kernel
	}
	const nearSectors = 4096 // ~2 MB: beyond this, waiting cannot pay off
	return st.think <= anticIdleWindow && st.seekDist <= nearSectors
}

// Next implements Algorithm.
func (a *Anticipatory) Next(now time.Duration, head int64) (*Request, time.Duration) {
	if a.sorted.len() == 0 {
		return nil, 0
	}
	// Expired writes preempt anticipation.
	if r := a.writes.expired(now); r != nil {
		a.sorted.remove(r)
		a.writes.remove(r)
		return r, 0
	}
	i := a.sorted.cscan(head)
	best := a.sorted.reqs[i]
	// If the best candidate is from another origin and the last origin is
	// worth waiting for, idle.
	if best.Origin != a.lastOrigin && a.anticipating() && now < a.lastComplete+anticIdleWindow {
		return nil, a.lastComplete + anticIdleWindow
	}
	a.sorted.removeAt(i)
	if best.Write {
		a.writes.remove(best)
	}
	return best, 0
}

// Pending implements Algorithm.
func (a *Anticipatory) Pending() int { return a.sorted.len() }

// NotifyComplete implements Algorithm.
func (a *Anticipatory) NotifyComplete(r *Request, now time.Duration) {
	a.lastOrigin = r.Origin
	a.lastEnd = r.End()
	a.lastComplete = now
	a.haveLast = true
}
