package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestAfterOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.After(20*time.Millisecond, func() { order = append(order, 2) })
	k.After(10*time.Millisecond, func() { order = append(order, 1) })
	k.After(30*time.Millisecond, func() { order = append(order, 3) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events out of order: %v", order)
	}
	if k.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", k.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(time.Millisecond, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	var at1, at2 time.Duration
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		at1 = p.Now()
		p.Sleep(2 * time.Second)
		at2 = p.Now()
	})
	k.Run()
	if at1 != 5*time.Second || at2 != 7*time.Second {
		t.Fatalf("wake times %v, %v; want 5s, 7s", at1, at2)
	}
}

func TestSpawnAt(t *testing.T) {
	k := NewKernel(1)
	var started time.Duration = -1
	k.SpawnAt(3*time.Second, "late", func(p *Proc) { started = p.Now() })
	k.Run()
	if started != 3*time.Second {
		t.Fatalf("started at %v, want 3s", started)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel(42)
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(time.Duration(1+len(name)) * time.Millisecond)
					log = append(log, name)
				}
			})
		}
		k.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("nondeterministic length")
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("nondeterministic order: %v vs %v", got, first)
				}
			}
		}
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	k.After(time.Second, func() { fired++ })
	k.After(3*time.Second, func() { fired++ })
	k.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", k.Now())
	}
	k.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after full run, want 2", fired)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("bad", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	defer func() {
		if r := recover(); r == nil {
			t.Fatalf("expected panic from Run")
		}
	}()
	k.Run()
}

func TestLiveCount(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("p1", func(p *Proc) { p.Sleep(time.Second) })
	k.Spawn("p2", func(p *Proc) { p.Sleep(2 * time.Second) })
	if k.Live() != 2 {
		t.Fatalf("live = %d, want 2", k.Live())
	}
	k.Run()
	if k.Live() != 0 {
		t.Fatalf("live = %d after run, want 0", k.Live())
	}
}

func TestSignalBroadcastWakesAll(t *testing.T) {
	k := NewKernel(1)
	s := &Signal{}
	woken := 0
	for i := 0; i < 5; i++ {
		k.Spawn("waiter", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	k.Spawn("caster", func(p *Proc) {
		p.Sleep(time.Second)
		if s.WaiterCount() != 5 {
			t.Errorf("waiters = %d, want 5", s.WaiterCount())
		}
		s.Broadcast()
	})
	k.Run()
	if woken != 5 {
		t.Fatalf("woken = %d, want 5", woken)
	}
}

func TestSignalNoMemory(t *testing.T) {
	k := NewKernel(1)
	s := &Signal{}
	woken := false
	k.Spawn("caster", func(p *Proc) { s.Broadcast() })
	k.SpawnAt(time.Second, "late-waiter", func(p *Proc) {
		if s.WaitTimeout(p, time.Second) {
			woken = true
		}
	})
	k.Run()
	if woken {
		t.Fatalf("waiter woken by broadcast that happened before it waited")
	}
}

func TestWaitTimeoutFires(t *testing.T) {
	k := NewKernel(1)
	s := &Signal{}
	var signaled bool
	var wokeAt time.Duration
	k.Spawn("waiter", func(p *Proc) {
		signaled = s.WaitTimeout(p, 3*time.Second)
		wokeAt = p.Now()
	})
	k.Run()
	if signaled {
		t.Fatalf("WaitTimeout reported signal, want timeout")
	}
	if wokeAt != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", wokeAt)
	}
}

func TestWaitTimeoutSignaledEarly(t *testing.T) {
	k := NewKernel(1)
	s := &Signal{}
	var signaled bool
	var wokeAt time.Duration
	k.Spawn("waiter", func(p *Proc) {
		signaled = s.WaitTimeout(p, 10*time.Second)
		wokeAt = p.Now()
	})
	k.Spawn("caster", func(p *Proc) {
		p.Sleep(time.Second)
		s.Broadcast()
	})
	k.Run()
	if !signaled {
		t.Fatalf("WaitTimeout reported timeout, want signal")
	}
	if wokeAt != time.Second {
		t.Fatalf("woke at %v, want 1s", wokeAt)
	}
	// The stale timeout event must not wake the proc again or panic.
}

// A Signal that only ever times out stays bounded: a timed-out wait's ref
// is dropped before the list would grow, instead of waiting for a
// Broadcast that never comes.
func TestTimedOutWaitsStayBounded(t *testing.T) {
	k := NewKernel(1)
	s := &Signal{}
	const waits = 100_000
	timeouts := 0
	k.Spawn("poller", func(p *Proc) {
		for i := 0; i < waits; i++ {
			if !s.WaitTimeout(p, time.Millisecond) {
				timeouts++
			}
		}
	})
	k.Run()
	if timeouts != waits {
		t.Fatalf("%d of %d waits timed out", timeouts, waits)
	}
	if n := cap(s.waiters); n > 2 {
		t.Fatalf("waiter list grew to capacity %d after %d timeouts", n, waits)
	}
}

// Dropping stale refs keeps the live waiters in order: a Broadcast after
// many timeouts among them wakes the blocked Procs oldest first.
func TestTimedOutWaitsKeepWakeOrder(t *testing.T) {
	k := NewKernel(1)
	s := &Signal{}
	var order []string
	block := func(name string) {
		k.Spawn(name, func(p *Proc) {
			s.Wait(p)
			order = append(order, name)
		})
	}
	block("a")
	k.Spawn("poller", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			s.WaitTimeout(p, time.Millisecond)
		}
	})
	block("b")
	k.Spawn("late", func(p *Proc) {
		p.Sleep(500 * time.Millisecond)
		s.Wait(p)
		order = append(order, "late")
	})
	k.Spawn("caster", func(p *Proc) {
		p.Sleep(2 * time.Second)
		if n := s.WaiterCount(); n != 3 {
			t.Errorf("WaiterCount = %d, want 3", n)
		}
		if n := len(s.waiters); n > 8 {
			t.Errorf("%d refs queued for 3 live waiters", n)
		}
		s.Broadcast()
	})
	k.Run()
	if got := strings.Join(order, ","); got != "a,b,late" {
		t.Fatalf("wake order %s, want a,b,late", got)
	}
}

func TestQueueFIFO(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int]()
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(time.Second)
			q.Put(i)
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[string]()
	var gotAt time.Duration
	k.Spawn("consumer", func(p *Proc) {
		q.Get(p)
		gotAt = p.Now()
	})
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(5 * time.Second)
		q.Put("x")
	})
	k.Run()
	if gotAt != 5*time.Second {
		t.Fatalf("got at %v, want 5s", gotAt)
	}
}

func TestResourceSerializes(t *testing.T) {
	k := NewKernel(1)
	var l Lock
	var log []time.Duration
	for i := 0; i < 3; i++ {
		k.Spawn("user", func(p *Proc) {
			l.Acquire(p)
			log = append(log, p.Now())
			p.Sleep(time.Second)
			l.Release()
		})
	}
	k.Run()
	want := []time.Duration{0, time.Second, 2 * time.Second}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("acquisitions at %v, want %v", log, want)
		}
	}
}

// TestLockFIFOHandoff: waiters get the lock in arrival order, and a Proc
// that asks at the very instant of a release queues behind the waiter the
// lock was handed to instead of barging ahead of it.
func TestLockFIFOHandoff(t *testing.T) {
	k := NewKernel(1)
	var l Lock
	var order []string
	var use func(name string) func(p *Proc)
	use = func(name string) func(p *Proc) {
		return func(p *Proc) {
			l.Acquire(p)
			order = append(order, fmt.Sprintf("%s@%v", name, p.Now()))
			p.Sleep(time.Second)
			if name == "first" {
				// Runs at this instant, after the release below.
				k.Spawn("late", use("late"))
			}
			l.Release()
		}
	}
	k.Spawn("first", use("first"))
	k.SpawnAt(time.Millisecond, "second", use("second"))
	k.SpawnAt(2*time.Millisecond, "third", use("third"))
	k.Run()
	want := []string{"first@0s", "second@1s", "third@2s", "late@3s"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel(1)
	wg := &WaitGroup{}
	wg.Add(3)
	var doneAt time.Duration
	k.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		i := i
		k.Spawn("worker", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Second)
			wg.Done()
		})
	}
	k.Run()
	if doneAt != 3*time.Second {
		t.Fatalf("waiter released at %v, want 3s", doneAt)
	}
}

func TestWaitGroupZeroImmediate(t *testing.T) {
	k := NewKernel(1)
	wg := &WaitGroup{}
	ran := false
	k.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	k.Run()
	if !ran {
		t.Fatalf("Wait on zero count did not return")
	}
}

func TestNestedSpawn(t *testing.T) {
	k := NewKernel(1)
	var childRan time.Duration = -1
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childRan = c.Now()
		})
		p.Sleep(5 * time.Second)
	})
	k.Run()
	if childRan != 2*time.Second {
		t.Fatalf("child ran at %v, want 2s", childRan)
	}
}

func TestRandDeterminism(t *testing.T) {
	a := NewKernel(7).Rand().Int63()
	b := NewKernel(7).Rand().Int63()
	if a != b {
		t.Fatalf("same seed produced different values")
	}
}

func TestSpawnAtPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("p", func(p *Proc) { p.Sleep(time.Second) })
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic scheduling in the past")
		}
	}()
	k.SpawnAt(500*time.Millisecond, "late", func(p *Proc) {})
}

func TestAfterNegativePanics(t *testing.T) {
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	k.After(-time.Second, func() {})
}

func TestResourceMisusePanics(t *testing.T) {
	var l Lock
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic releasing an unheld lock")
		}
	}()
	l.Release()
}

// TestYieldOrdersAfterQueuedEvents: a zero Sleep yields, letting every
// activity already queued at this instant run first.
func TestYieldOrdersAfterQueuedEvents(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	k.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
