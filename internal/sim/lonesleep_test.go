package sim

import (
	"testing"
	"time"
)

// Tests of the lone sleep: a Sleep with no queued event due at or before
// its wake, within the RunUntil deadline, advances the clock in place
// instead of a heap push, a pop and a self-resume.

// TestLoneSleepSkipsTheQueue: lone sleeps take no arena slot and leave the
// heap as they found it, yet spend one seq each and count exactly what the
// queue round trip would have counted.
func TestLoneSleepSkipsTheQueue(t *testing.T) {
	const sleeps = 10
	k := NewKernel(1)
	far := 0
	k.Spawn("lone", func(p *Proc) {
		// Take the start wake's recycled slot with a far-future event, so
		// a sleep that went through the queue would have to grow the arena.
		k.After(time.Hour, func() { far++ })
		arena, seq := len(k.arena), k.seq
		for i := 0; i < sleeps; i++ {
			p.Sleep(time.Millisecond)
			if len(k.heap) != 1 || len(k.arena) != arena || len(k.free) != 0 {
				t.Fatalf("sleep %d: heap %d, arena %d, free %d; want 1, %d, 0",
					i, len(k.heap), len(k.arena), len(k.free), arena)
			}
		}
		if p.Now() != sleeps*time.Millisecond {
			t.Fatalf("clock %v after %d lone sleeps, want %v", p.Now(), sleeps, sleeps*time.Millisecond)
		}
		if got := k.seq - seq; got != sleeps {
			t.Fatalf("lone sleeps spent %d seqs, want %d", got, sleeps)
		}
	})
	k.Run()
	if far != 1 || k.Now() != time.Hour {
		t.Fatalf("far event ran %d times, clock %v; want once at 1h", far, k.Now())
	}
	want := Stats{Events: 1 + sleeps + 1, Callbacks: 1, Handoffs: 1, SelfResumes: sleeps}
	if got := k.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	if k.Pending() != 0 || len(k.heap) != 0 {
		t.Fatalf("pending %d, heap %d after drain; want 0, 0", k.Pending(), len(k.heap))
	}
}

// TestAfterDueAtWakeRunsFirst: an event queued for exactly the sleep's wake
// time has the smaller seq, so it runs before the sleeper resumes; only a
// strictly later event leaves the sleep lone.
func TestAfterDueAtWakeRunsFirst(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("sleeper", func(p *Proc) {
		k.After(time.Millisecond, func() { order = append(order, "after") })
		p.Sleep(time.Millisecond)
		order = append(order, "sleep")
	})
	k.Run()
	if len(order) != 2 || order[0] != "after" || order[1] != "sleep" {
		t.Fatalf("order %v, want [after sleep]", order)
	}
	if st := k.Stats(); st.Callbacks != 1 || st.SelfResumes != 1 {
		t.Fatalf("stats %+v: want the callback, then the sleeper's own wake", st)
	}
}

// TestSleepPastDeadlineParks: a sleep that would wake past the RunUntil
// deadline queues its wake and parks. RunUntil returns at the deadline with
// the Proc still asleep, and the next Run wakes it at its own time.
func TestSleepPastDeadlineParks(t *testing.T) {
	k := NewKernel(1)
	var woke time.Duration = -1
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		woke = p.Now()
	})
	k.RunUntil(2 * time.Second)
	if woke >= 0 || k.Now() != 2*time.Second || k.Pending() != 1 {
		t.Fatalf("after RunUntil(2s): woke at %v, clock %v, pending %d; want asleep, 2s, 1",
			woke, k.Now(), k.Pending())
	}
	k.Run()
	if woke != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", woke)
	}
}
