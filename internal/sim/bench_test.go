package sim

import (
	"testing"
	"time"
)

// Micro-benchmarks of the kernel hot paths the sweep engine leans on:
// event scheduling, Proc sleep/wake, and Signal waits. These are the
// per-simulated-operation costs, so allocs/op is the metric the baseline
// guards most tightly — the event free list and the per-Proc reusable
// waiter should keep the steady state at zero.

func BenchmarkKernelEvents(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			k.After(time.Microsecond, tick)
		}
	}
	k.After(time.Microsecond, tick)
	k.Run()
	if count != b.N {
		b.Fatalf("ran %d events, want %d", count, b.N)
	}
}

func BenchmarkKernelSleepWake(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	k.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	k.Run()
}

func BenchmarkKernelSignalBroadcast(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	s := k.NewSignal()
	const waiters = 8
	for w := 0; w < waiters; w++ {
		k.Spawn("waiter", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				s.Wait(p)
			}
		})
	}
	k.Spawn("broadcaster", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond) // let every waiter park first
			s.Broadcast()
		}
	})
	k.Run()
}

func BenchmarkKernelWaitTimeout(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	s := k.NewSignal()
	k.Spawn("bench", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if s.WaitTimeout(p, time.Microsecond) {
				b.Errorf("wait %d: woken without a broadcast", i)
				return
			}
		}
	})
	k.Run()
}

// BenchmarkKernelPopulatedHeap measures scheduling against a deep standing
// heap: 1024 far-future events make every push and pop sift through the
// 4-ary levels (on a near-empty heap each sift stops at once).
func BenchmarkKernelPopulatedHeap(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	const standing = 1024
	for i := 0; i < standing; i++ {
		k.After(time.Hour+time.Duration(i)*time.Second, func() {})
	}
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			k.After(time.Microsecond, tick)
		}
	}
	k.After(time.Microsecond, tick)
	k.RunUntil(time.Hour - time.Second)
	if count != b.N {
		b.Fatalf("ran %d events, want %d", count, b.N)
	}
}

// BenchmarkKernelWaitTimeoutEarlyWake measures the watchdog pattern where
// the broadcast always beats the timeout: every wait arms a long timer that
// must then be canceled, so this pins both the cancel path's cost and that
// spent timers never accumulate in the queue.
func BenchmarkKernelWaitTimeoutEarlyWake(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	s := k.NewSignal()
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if !s.WaitTimeout(p, time.Hour) {
				b.Errorf("wait %d: timed out, want early broadcast", i)
				return
			}
		}
	})
	k.Spawn("waker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond) // let the waiter park first
			s.Broadcast()
		}
	})
	k.Run()
	if n := k.Pending(); n != 0 {
		b.Fatalf("Pending = %d after drain, want 0 (canceled timers must not linger)", n)
	}
}
