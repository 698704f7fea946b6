package iosched

import (
	"testing"
	"time"
)

// TestCFQPipelinedStreamKeepsSlice: an origin that keeps a request in flight
// while submitting the next one (pipelined synchronous I/O) must not have the
// device's service time mistaken for think time. Before per-queue in-flight
// accounting, Add sampled the completion-to-arrival gap whenever the queue
// was empty — including while a request was being serviced — so a perfectly
// prompt pipelined origin accumulated think ≈ service time, anticipation was
// abandoned mid-stream, and another origin's far-away request was interleaved
// into the sequential stream.
//
// The think-time EWMA gives a sample 1/8 weight, so one poisoned sample must
// exceed 8 × cfqIdleWindow to push think past the window; the long request
// below provides it, and the whole stream fits inside one cfqSlice.
func TestCFQPipelinedStreamKeepsSlice(t *testing.T) {
	c := NewCFQ()
	now := time.Duration(0)

	// Drive the algorithm the way the serial dispatcher does: at most one
	// request in flight.
	dispatch := func(step string) *Request {
		r, _ := c.Next(now, 0)
		if r == nil || r.Origin != 1 {
			t.Fatalf("%s: slice left origin 1 early: dispatched %+v", step, r)
		}
		return r
	}
	complete := func(r *Request, svc time.Duration) {
		now += svc
		c.NotifyComplete(r, now)
	}

	// Origin 1 first so it owns the first slice; origin 2's far-away request
	// stays pending the whole time.
	c.Add(&Request{LBN: 0, Sectors: 8, Origin: 1}, now)
	c.Add(&Request{LBN: 1 << 22, Sectors: 8, Origin: 2}, now)
	complete(dispatch("first request"), time.Millisecond)

	// A genuine think gap, far inside the idle window.
	now += 500 * time.Microsecond
	c.Add(&Request{LBN: 64, Sectors: 8, Origin: 1}, now)
	long := dispatch("long request")

	// The next request arrives while the long one is in flight: 9 windows
	// after the last completion, none of it think time.
	const svc = 10 * cfqIdleWindow
	c.Add(&Request{LBN: 128, Sectors: 8, Origin: 1}, now+svc-cfqIdleWindow)
	complete(long, svc)
	complete(dispatch("pipelined request"), time.Millisecond)
	if r, idleBy := c.Next(now, 0); r != nil {
		t.Fatalf("anticipation abandoned, origin %d interleaved (think poisoned by in-flight arrival)", r.Origin)
	} else if idleBy <= now {
		t.Fatal("idle window not armed after last completion")
	}
	if now+cfqIdleWindow >= cfqSlice {
		t.Fatalf("stream ends at %v: the slice (%v) would expire first and the test would prove nothing", now, cfqSlice)
	}

	// Stream over: only after the idle window expires does origin 2 run.
	now += cfqIdleWindow
	r, _ := c.Next(now, 0)
	if r == nil || r.Origin != 2 {
		t.Fatalf("origin 2 not served after stream ended: got %+v", r)
	}
	c.NotifyComplete(r, now+time.Millisecond)
}
