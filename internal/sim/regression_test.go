package sim

import (
	"math/rand"
	"testing"
	"time"

	"dualpar/internal/check"
)

// TestQueueRingCapacityBounded pins the ring-buffer fix: a long-lived queue
// cycling many items at low depth must keep a small constant buffer, not
// accumulate the dead prefix of everything it has consumed (the old
// head-slicing queue leaked its entire history).
func TestQueueRingCapacityBounded(t *testing.T) {
	q := NewQueue[int]()
	for i := 0; i < 100000; i++ {
		q.Put(i)
		if v := q.pop(); v != i {
			t.Fatalf("cycle %d: got %d", i, v)
		}
	}
	if c := cap(q.buf); c > 8 {
		t.Fatalf("ring capacity = %d after 100k depth-1 put/get cycles, want <= 8", c)
	}
}

// TestWaitTimeoutCancelsDeadTimer pins the dead-timer fix: a WaitTimeout
// won by an early Broadcast must cancel its expiry event instead of leaving
// it queued until it fires as a no-op (watchdog-heavy runs carried armies
// of spent timers).
func TestWaitTimeoutCancelsDeadTimer(t *testing.T) {
	k := NewKernel(1)
	s := &Signal{}
	k.After(time.Millisecond, func() { s.Broadcast() })
	woke := false
	k.Spawn("w", func(p *Proc) { woke = s.WaitTimeout(p, time.Hour) })
	k.RunUntil(2 * time.Millisecond)
	if !woke {
		t.Fatalf("waiter not woken by the early broadcast")
	}
	if n := k.Pending(); n != 0 {
		t.Fatalf("Pending = %d after broadcast-won wait, want 0 (expiry event canceled)", n)
	}
}

// refEvent is one entry of the reference event queue: a straightforward
// O(n) linear-scan min-extraction over (at, seq), independently
// re-implementing the pop order the kernel's 4-ary heap plus same-instant
// FIFO must produce.
type refEvent struct {
	at  time.Duration
	seq uint64
	id  int
}

// TestKernelPopOrderMatchesReference drives the kernel and a brute-force
// reference queue through the same randomized schedule/cancel workload —
// including same-instant children scheduled mid-run, which the heap orders
// after every queued event of their instant by seq — and requires the
// identical execution order.
func TestKernelPopOrderMatchesReference(t *testing.T) {
	const (
		events  = 200
		maxAt   = 50 * time.Millisecond
		childID = 1 << 20 // child ids = parent id + childID, never spawn grandchildren
	)
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel(0)
		var got []int

		// Schedule the initial batch in lockstep with the reference queue;
		// seq assignment order is identical by construction.
		var pending []refEvent
		refSeq := uint64(0)
		ids := make([]eventID, events)
		for id := 0; id < events; id++ {
			at := time.Duration(rng.Intn(int(maxAt/time.Millisecond))) * time.Millisecond
			id := id
			ids[id] = k.schedule(at, func() {
				got = append(got, id)
				if id%5 == 0 {
					cid := id + childID
					k.schedule(k.now, func() { got = append(got, cid) }, nil, false)
				}
			}, nil, false)
			pending = append(pending, refEvent{at: at, seq: refSeq, id: id})
			refSeq++
		}
		// Cancel a random quarter: each is removed from the heap at its
		// recorded position, from the root or from deep inside.
		for i := events - 1; i >= 0; i-- {
			if rng.Intn(4) == 0 {
				k.cancel(ids[i])
				pending = append(pending[:i], pending[i+1:]...)
			}
		}

		// Reference execution: pop strictly by (at, seq); a popped parent
		// enqueues its same-instant child with the next seq, exactly as the
		// kernel's callback re-enters schedule.
		var want []int
		for len(pending) > 0 {
			mi := 0
			for j, e := range pending {
				if e.at < pending[mi].at || (e.at == pending[mi].at && e.seq < pending[mi].seq) {
					mi = j
				}
			}
			e := pending[mi]
			pending = append(pending[:mi], pending[mi+1:]...)
			want = append(want, e.id)
			if e.id < childID && e.id%5 == 0 {
				pending = append(pending, refEvent{at: e.at, seq: refSeq, id: e.id + childID})
				refSeq++
			}
		}

		k.Run()
		if len(got) != len(want) {
			t.Fatalf("seed %d: kernel ran %d events, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: pop order diverges at %d: kernel %d, reference %d",
					seed, i, got[i], want[i])
			}
		}
	}
}

// TestClockMonotoneUnderStopResume property-tests the clock across random
// RunUntil deadlines, each run stopping at its deadline and the next one
// resuming the queued events, with the audit oracle armed: no Proc may ever
// observe time moving backwards, and the kernel clock itself must be
// non-decreasing across every RunUntil call.
func TestClockMonotoneUnderStopResume(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel(seed)
		aud := check.New(seed, "sim clock monotonicity property")
		aud.SetArtifactDir(t.TempDir())
		aud.SetClock(k.Now)
		k.SetAudit(aud)

		// A few procs sleeping random amounts (some identical, to collide
		// instants), signaling each other through a queue.
		q := NewQueue[int]()
		for w := 0; w < 3; w++ {
			k.Spawn("worker", func(p *Proc) {
				for i := 0; i < 50; i++ {
					p.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
					q.Put(i)
				}
			})
		}
		k.Spawn("drain", func(p *Proc) {
			for i := 0; i < 150; i++ {
				q.Get(p)
			}
		})

		last := k.Now()
		for i := 0; i < 40 && (k.Pending() > 0 || i == 0); i++ {
			deadline := k.Now() + time.Duration(rng.Intn(60))*time.Millisecond
			k.RunUntil(deadline)
			if k.Now() < last {
				t.Fatalf("seed %d: clock moved backwards across RunUntil: %v -> %v", seed, last, k.Now())
			}
			last = k.Now()
		}
		k.Run() // drain whatever remains
		for _, v := range aud.Violations() {
			t.Errorf("seed %d: audit violation: %v", seed, v)
		}
	}
}
