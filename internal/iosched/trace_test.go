package iosched

import (
	"testing"
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/fault"
	"dualpar/internal/sim"
)

// traceTwo enqueues two non-adjacent requests at time 0 on a NOOP dispatcher
// over dev and returns the trace plus the first request's completion time,
// which is when the second one is dispatched.
func traceTwo(t *testing.T, k *sim.Kernel, dev disk.Device, a, b Request) (*disk.Trace, time.Duration) {
	t.Helper()
	disp := NewDispatcher(k, "disp", dev, NewNOOP())
	tr := disp.EnableTrace()
	var firstDone time.Duration
	k.Spawn("submit", func(p *sim.Proc) {
		disp.Enqueue(&a)
		disp.Enqueue(&b)
		disp.Wait(p, &a)
		firstDone = p.Now()
		disp.Wait(p, &b)
	})
	k.RunUntil(time.Hour)
	if tr.Len() != 2 {
		t.Fatalf("trace len = %d, want 2", tr.Len())
	}
	return tr, firstDone
}

func TestTraceRecordsAccesses(t *testing.T) {
	tr, firstDone := traceTwo(t, sim.NewKernel(1), newTestDisk(),
		Request{LBN: 100, Sectors: 8}, Request{LBN: 200, Sectors: 8, Write: true})
	e := tr.Entries()
	if e[0].LBN != 100 || e[1].LBN != 200 || e[0].Write || !e[1].Write || e[1].Sectors != 8 {
		t.Fatalf("trace entries wrong: %+v", e)
	}
	// Both arrive at 0; each is logged when dispatched, not on arrival or
	// completion.
	if e[0].At != 0 || e[1].At != firstDone || firstDone == 0 {
		t.Fatalf("entries logged at %v, %v; want 0 and %v (dispatch times)", e[0].At, e[1].At, firstDone)
	}
}

func TestSSDStatsAndTrace(t *testing.T) {
	d := disk.NewSSD()
	tr, _ := traceTwo(t, sim.NewKernel(1), d,
		Request{LBN: 0, Sectors: 16}, Request{LBN: 1000, Sectors: 16, Write: true})
	s := d.Stats()
	if s.Accesses != 2 || s.BytesRead != 16*512 || s.BytesWritten != 16*512 {
		t.Fatalf("stats = %+v", s)
	}
	if e := tr.Entries(); e[0].LBN != 0 || e[1].LBN != 1000 || !e[1].Write {
		t.Fatalf("trace entries wrong: %+v", e)
	}
}

func TestTraceRAID0LogsLogicalLBNs(t *testing.T) {
	m0, m1 := disk.New(1<<24), disk.New(1<<24)
	// 128-sector chunks: logical LBN 389 is chunk 3, member 1, member LBN 133.
	tr, _ := traceTwo(t, sim.NewKernel(1), disk.NewRAID0([]*disk.Disk{m0, m1}, 128),
		Request{LBN: 389, Sectors: 8}, Request{LBN: 5, Sectors: 8})
	if e := tr.Entries(); e[0].LBN != 389 || e[1].LBN != 5 {
		t.Fatalf("trace LBNs %d, %d; want logical 389, 5", e[0].LBN, e[1].LBN)
	}
	if m0.Stats().Accesses != 1 || m1.Stats().Accesses != 1 {
		t.Fatalf("member accesses %d/%d, want 1/1", m0.Stats().Accesses, m1.Stats().Accesses)
	}
}

// Under an active DiskSlow window each entry is stamped with its dispatch
// time: the first at 0, not after the healthy service or the surcharge; the
// second when the first's surcharged access completes.
func TestTraceExcludesDiskSlowSurcharge(t *testing.T) {
	k := sim.NewKernel(1)
	inj := fault.NewInjector(k, &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.DiskSlow, Target: 0, Factor: 10},
	}}, 1)
	d := newTestDisk()
	tr, firstDone := traceTwo(t, k, fault.WrapDevice(d, inj, 0),
		Request{LBN: 1 << 20, Sectors: 8}, Request{LBN: 1 << 22, Sectors: 8})
	e := tr.Entries()
	if e[0].At != 0 {
		t.Fatalf("first entry at %v, want 0 (dispatch time)", e[0].At)
	}
	if e[1].At != firstDone {
		t.Fatalf("second entry at %v, want %v (first's completion)", e[1].At, firstDone)
	}
	// The first access's healthy time is a tenth of its charged time, so its
	// completion lies well past the healthy service.
	if busy := d.Stats().BusyTime; firstDone <= busy {
		t.Fatalf("first completion %v not past both healthy services %v: surcharge missing", firstDone, busy)
	}
}
