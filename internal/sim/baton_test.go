package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Tests of baton passing: the event loop runs on whichever goroutine holds
// control, so callbacks, deadlines, panics and Proc exits can all happen on
// a Proc's goroutine rather than the RunUntil caller's.

// TestCallbackPanicOnProcKeepsItsValue: a callback that panics while a Proc
// holds the baton surfaces from Run with its own value, not as the Proc's
// panic, and the Proc's code never sees it.
func TestCallbackPanicOnProcKeepsItsValue(t *testing.T) {
	errBoom := errors.New("boom")
	k := NewKernel(1)
	k.After(2*time.Millisecond, func() { panic(errBoom) })
	procSaw := false
	k.Spawn("x", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				procSaw = true
				panic(r)
			}
		}()
		p.Sleep(3 * time.Millisecond) // parks; the loop on x runs the callback
	})
	defer func() {
		r := recover()
		if r != errBoom {
			t.Fatalf("Run panicked with %v (%T), want the callback's own value", r, r)
		}
		if procSaw {
			t.Fatalf("the callback's panic unwound into the Proc's code")
		}
		if st := k.Stats(); st.Handoffs != 1 || st.Callbacks != 1 {
			t.Fatalf("stats %+v: want the callback to run after one handoff", st)
		}
	}()
	k.Run()
}

// TestProcPanicNamesTheProc: a Proc's own panic reaches the RunUntil caller
// wrapped with the Proc's name, even when it happens on a goroutine that
// was handed the baton by another Proc.
func TestProcPanicNamesTheProc(t *testing.T) {
	k := NewKernel(1)
	var s Signal
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(time.Millisecond)
		s.Broadcast()
		p.Sleep(time.Millisecond)
	})
	k.Spawn("bad", func(p *Proc) {
		s.Wait(p)
		panic("boom")
	})
	defer func() {
		want := `sim: proc "bad" panicked: boom`
		if r := recover(); r != want {
			t.Fatalf("Run panicked with %v, want %q", r, want)
		}
	}()
	k.Run()
}

// resumeLog runs three Procs that sleep, hand items through a queue and
// wait on a signal with timeouts, and logs every resume as name@time. step
// drives the kernel; it must run it to completion.
func resumeLog(step func(k *Kernel)) []string {
	k := NewKernel(7)
	var log []string
	note := func(p *Proc) { log = append(log, fmt.Sprintf("%s@%v", p.Name(), p.Now())) }
	q := NewQueue[int]()
	var s Signal
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(time.Duration(1+i%3) * time.Millisecond)
			note(p)
			q.Put(i)
			if i%4 == 0 {
				s.Broadcast()
			}
		}
	})
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 20; i++ {
			q.Get(p)
			note(p)
		}
	})
	k.Spawn("watcher", func(p *Proc) {
		for i := 0; i < 10; i++ {
			s.WaitTimeout(p, 2500*time.Microsecond)
			note(p)
		}
	})
	step(k)
	return log
}

// TestRunUntilStopOnProcResumesInOrder: RunUntil deadlines that fall while a
// Proc holds the baton hand it back to the caller mid-run; the next RunUntil
// resumes that Proc through its wake event, so stepping through deadlines
// gives the same resume order as one Run.
func TestRunUntilStopOnProcResumesInOrder(t *testing.T) {
	whole := resumeLog(func(k *Kernel) { k.Run() })
	stops := 0
	stepped := resumeLog(func(k *Kernel) {
		for k.Live() > 0 {
			before := k.Stats().Events
			k.RunUntil(k.Now() + 700*time.Microsecond)
			if k.Stats().Events > before && k.Live() > 0 {
				stops++ // this call ran Procs and stopped with them parked
			}
		}
	})
	if stops < 5 {
		t.Fatalf("only %d deadline stops interrupted running Procs", stops)
	}
	if len(whole) != len(stepped) {
		t.Fatalf("stepped run logged %d resumes, one Run %d", len(stepped), len(whole))
	}
	for i := range whole {
		if whole[i] != stepped[i] {
			t.Fatalf("resume %d: stepped %s, one Run %s", i, stepped[i], whole[i])
		}
	}
}

// TestFinishedProcsLeaveNoGoroutines: a finishing Proc passes the baton on
// from its exit path and its goroutine returns, so a drained kernel holds
// no goroutine for any finished Proc.
func TestFinishedProcsLeaveNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	k := NewKernel(1)
	var s Signal
	const n = 50
	for i := 0; i < n; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			p.Sleep(time.Duration(i%7) * time.Millisecond)
			if i%2 == 0 {
				s.WaitTimeout(p, time.Duration(i)*time.Millisecond)
			} else {
				s.Broadcast()
			}
		})
	}
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("live = %d after Run, want 0", k.Live())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after %d finished Procs, want %d", runtime.NumGoroutine(), n, before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFinishedProcDropsStartFunction: a Proc reachable after it finished (a
// stale waiter record in a daemon's Signal keeps it so) must not keep its
// start function, and through it everything the function captured, alive.
func TestFinishedProcDropsStartFunction(t *testing.T) {
	type payload struct {
		buf  [64]byte
		next *payload
	}
	k := NewKernel(1)
	var s Signal
	collected := make(chan struct{})
	p := func() *Proc {
		obj := &payload{}
		runtime.SetFinalizer(obj, func(*payload) { close(collected) })
		return k.Spawn("x", func(p *Proc) {
			obj.buf[0]++ // obj is reachable only through this function
			s.WaitTimeout(p, time.Millisecond)
		})
	}()
	k.Run()
	if len(s.waiters) == 0 || s.waiters[0].w.p != p {
		t.Fatalf("want a stale waiter record for the finished Proc")
	}
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(&s)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("the finished Proc keeps its start function's captures reachable")
}

// TestStatsDeterministic: the kernel's self-counters are exact, so two runs
// of one program at one seed count the same work, and every counter moves.
func TestStatsDeterministic(t *testing.T) {
	run := func() Stats {
		k := NewKernel(3)
		resumes := 0
		var s Signal
		for i := 0; i < 4; i++ {
			k.Spawn("w", func(p *Proc) {
				for j := 0; j < 10; j++ {
					p.Sleep(time.Duration(k.Rand().Intn(3)) * time.Millisecond)
					if s.WaitTimeout(p, time.Millisecond) {
						resumes++
					}
					p.Sleep(0)
				}
			})
		}
		k.Spawn("b", func(p *Proc) {
			for j := 0; j < 20; j++ {
				p.Sleep(700 * time.Microsecond)
				s.Broadcast()
			}
		})
		k.Run()
		k.Spawn("solo", func(p *Proc) { p.Sleep(time.Second) })
		k.Run()
		return k.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("stats differ across runs at one seed: %+v vs %+v", a, b)
	}
	if a.Callbacks == 0 || a.Handoffs == 0 || a.SelfResumes == 0 {
		t.Fatalf("stats %+v: want every counter exercised", a)
	}
	if a.Events != a.Callbacks+a.Handoffs+a.SelfResumes {
		t.Fatalf("stats %+v: events are not callbacks + wakes", a)
	}
}

// TestPingPongOneHandoffPerResume: two Procs trading items through queues
// switch goroutines exactly once per resume, and never resume themselves.
func TestPingPongOneHandoffPerResume(t *testing.T) {
	k := NewKernel(1)
	var toA, toB Queue[int]
	blocked := 0
	get := func(p *Proc, q *Queue[int]) {
		if q.n == 0 {
			blocked++ // this Get parks and is resumed exactly once
		}
		q.Get(p)
	}
	const n = 100
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < n; i++ {
			toB.Put(i)
			get(p, &toA)
		}
	})
	k.Spawn("b", func(p *Proc) {
		for i := 0; i < n; i++ {
			get(p, &toB)
			toA.Put(i)
		}
	})
	k.Run()
	st := k.Stats()
	const starts = 2
	if blocked < n || st.Handoffs != uint64(blocked+starts) || st.SelfResumes != 0 || st.Callbacks != 0 {
		t.Fatalf("stats %+v for %d blocking gets: want one handoff per resume and start", st, blocked)
	}
}
