package iosched

import (
	"testing"
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/sim"
)

func newTestDisk() *disk.Disk {
	return disk.New(1 << 24)
}

// submitAll enqueues all requests at the given times and runs to completion,
// returning the service order (by trace).
func serviceOrder(t *testing.T, alg Algorithm, reqs []*Request, at []time.Duration) []disk.Entry {
	t.Helper()
	k := sim.NewKernel(1)
	d := newTestDisk()
	disp := NewDispatcher(k, "disp", d, alg)
	tr := disp.EnableTrace()
	for i, r := range reqs {
		r := r
		k.After(at[i], func() { disp.Enqueue(r) })
	}
	k.RunUntil(time.Hour)
	return tr.Entries()
}

func TestNOOPServesFIFO(t *testing.T) {
	reqs := []*Request{
		{LBN: 3000, Sectors: 8, Origin: 1},
		{LBN: 1000, Sectors: 8, Origin: 2},
		{LBN: 2000, Sectors: 8, Origin: 3},
	}
	got := serviceOrder(t, NewNOOP(), reqs, []time.Duration{0, 0, 0})
	want := []int64{3000, 1000, 2000}
	for i := range want {
		if got[i].LBN != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestNOOPBackMerge(t *testing.T) {
	reqs := []*Request{
		{LBN: 0, Sectors: 8, Origin: 1},
		{LBN: 8, Sectors: 8, Origin: 1},
		{LBN: 16, Sectors: 8, Origin: 1},
	}
	got := serviceOrder(t, NewNOOP(), reqs, []time.Duration{0, 0, 0})
	if len(got) != 1 || got[0].Sectors != 24 {
		t.Fatalf("merged dispatches = %v, want single 24-sector request", got)
	}
}

func TestDeadlineSortsBatch(t *testing.T) {
	reqs := []*Request{
		{LBN: 9000, Sectors: 8, Origin: 1},
		{LBN: 1000, Sectors: 8, Origin: 2},
		{LBN: 5000, Sectors: 8, Origin: 3},
	}
	got := serviceOrder(t, NewDeadline(), reqs, []time.Duration{0, 0, 0})
	want := []int64{1000, 5000, 9000}
	for i := range want {
		if got[i].LBN != want[i] {
			t.Fatalf("order %+v, want ascending %v", got, want)
		}
	}
}

func TestDeadlineExpiryPreemptsElevator(t *testing.T) {
	// One far-away read sits while a stream of ascending reads keeps the
	// elevator busy; after deadlineReadExpire it must be served.
	k := sim.NewKernel(1)
	d := newTestDisk()
	alg := NewDeadline()
	disp := NewDispatcher(k, "disp", d, alg)
	tr := disp.EnableTrace()
	k.After(0, func() { disp.Enqueue(&Request{LBN: 1 << 23, Sectors: 8, Origin: 9}) })
	for i := 0; i < 200; i++ {
		i := i
		k.After(time.Duration(i)*4*time.Millisecond, func() {
			disp.Enqueue(&Request{LBN: int64(i) * 1024, Sectors: 8, Origin: 1})
		})
	}
	k.RunUntil(time.Hour)
	servedAt := time.Duration(-1)
	for _, e := range tr.Entries() {
		if e.LBN == 1<<23 {
			servedAt = e.At
		}
	}
	if servedAt < 0 {
		t.Fatalf("expired request never served")
	}
	if servedAt > 700*time.Millisecond {
		t.Fatalf("expired request served at %v, deadline should bound it near 500ms", servedAt)
	}
}

func TestCFQSingleOriginElevator(t *testing.T) {
	// A single origin's batch is served in ascending order regardless of
	// arrival order.
	reqs := []*Request{
		{LBN: 9000, Sectors: 8, Origin: 1},
		{LBN: 1000, Sectors: 8, Origin: 1},
		{LBN: 5000, Sectors: 8, Origin: 1},
	}
	got := serviceOrder(t, NewCFQ(), reqs, []time.Duration{0, 0, 0})
	want := []int64{1000, 5000, 9000}
	for i := range want {
		if got[i].LBN != want[i] {
			t.Fatalf("order %+v, want ascending %v", got, want)
		}
	}
}

func TestCFQDoesNotSortAcrossOrigins(t *testing.T) {
	// Two origins with interleaved LBNs: CFQ serves per-origin, so the
	// global order is NOT fully ascending even though a global elevator
	// would make it so. This is the paper's Fig 1(c) behaviour.
	var reqs []*Request
	var at []time.Duration
	for i := 0; i < 8; i++ {
		reqs = append(reqs, &Request{LBN: int64(i) * 2000, Sectors: 8, Origin: i % 2})
		at = append(at, 0)
	}
	got := serviceOrder(t, NewCFQ(), reqs, at)
	ascending := true
	for i := 1; i < len(got); i++ {
		if got[i].LBN < got[i-1].LBN {
			ascending = false
		}
	}
	if ascending {
		t.Fatalf("CFQ produced a globally sorted order; per-origin queueing should prevent that: %+v", got)
	}
}

func TestCFQAnticipationKeepsOrigin(t *testing.T) {
	// Origin 1 issues a synchronous sequential stream (next request arrives
	// 1ms after the previous completes — inside the 8ms idle window).
	// Origin 2 has a pending far-away request. CFQ should idle for origin 1
	// and serve its whole stream before switching.
	k := sim.NewKernel(1)
	d := newTestDisk()
	disp := NewDispatcher(k, "disp", d, NewCFQ())
	tr := disp.EnableTrace()
	k.After(0, func() { disp.Enqueue(&Request{LBN: 1 << 23, Sectors: 8, Origin: 2}) })
	k.Spawn("stream", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r := &Request{LBN: int64(i) * 8, Sectors: 8, Origin: 1}
			disp.Submit(p, r)
			p.Sleep(time.Millisecond)
		}
	})
	k.RunUntil(time.Hour)
	entries := tr.Entries()
	if len(entries) != 6 {
		t.Fatalf("served %d requests, want 6", len(entries))
	}
	// All five origin-1 requests must be served before origin 2's.
	// Origin 1 wins the first dispatch only if its request is first; the
	// enqueue order makes origin 2 first. So check instead: after the first
	// origin-1 service, the stream is not interrupted.
	first1 := -1
	for i, e := range entries {
		if e.LBN < 1<<23 {
			first1 = i
			break
		}
	}
	for i := first1; i < first1+4; i++ {
		if entries[i].LBN >= 1<<23 {
			t.Fatalf("origin-1 stream interrupted at %d: %+v", i, entries)
		}
	}
}

func TestCFQIdleExpirySwitchesOrigin(t *testing.T) {
	// Origin 1 issues one request and never returns; origin 2 pending.
	// After the idle window, CFQ must switch to origin 2.
	k := sim.NewKernel(1)
	d := newTestDisk()
	disp := NewDispatcher(k, "disp", d, NewCFQ())
	tr := disp.EnableTrace()
	k.After(0, func() { disp.Enqueue(&Request{LBN: 0, Sectors: 8, Origin: 1}) })
	k.After(time.Millisecond, func() { disp.Enqueue(&Request{LBN: 1 << 22, Sectors: 8, Origin: 2}) })
	k.RunUntil(time.Hour)
	if tr.Len() != 2 {
		t.Fatalf("served %d, want 2", tr.Len())
	}
	last := tr.Entries()[1]
	if last.LBN != 1<<22 {
		t.Fatalf("second served LBN %d, want origin 2's", last.LBN)
	}
	// Service of origin 2 should happen shortly after idle expiry (~8ms),
	// not immediately and not after the 100ms slice.
	if last.At < 8*time.Millisecond || last.At > 60*time.Millisecond {
		t.Fatalf("origin 2 served at %v, want after ~8ms idle expiry", last.At)
	}
}

func TestCFQLargeSortedBatchOneSweep(t *testing.T) {
	// A single origin submitting a large pre-sorted batch is served in one
	// monotone sweep: Fig 1(d).
	var reqs []*Request
	var at []time.Duration
	for i := 0; i < 64; i++ {
		reqs = append(reqs, &Request{LBN: int64(i) * 4096, Sectors: 32, Origin: 1})
		at = append(at, 0)
	}
	got := serviceOrder(t, NewCFQ(), reqs, at)
	if m := disk.Monotonicity(got); m < 0.99 {
		t.Fatalf("monotonicity = %g, want ~1 for sorted single-origin batch", m)
	}
}

func TestSubmitBlocksUntilComplete(t *testing.T) {
	k := sim.NewKernel(1)
	d := newTestDisk()
	disp := NewDispatcher(k, "disp", d, NewNOOP())
	var doneAt time.Duration
	k.Spawn("client", func(p *sim.Proc) {
		disp.Submit(p, &Request{LBN: 1 << 20, Sectors: 8, Origin: 1})
		doneAt = p.Now()
	})
	k.RunUntil(time.Minute)
	if doneAt <= 0 {
		t.Fatalf("Submit returned at %v, want after positive service time", doneAt)
	}
}

func TestMergedRequestCompletesAbsorbed(t *testing.T) {
	k := sim.NewKernel(1)
	d := newTestDisk()
	disp := NewDispatcher(k, "disp", d, NewDeadline())
	done := 0
	wg := &sim.WaitGroup{}
	wg.Add(2)
	// Submit two adjacent requests at the same instant from two procs; one
	// should merge into the other, and both submitters must unblock.
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("client", func(p *sim.Proc) {
			disp.Submit(p, &Request{LBN: int64(i) * 8, Sectors: 8, Origin: 1})
			done++
			wg.Done()
		})
	}
	k.RunUntil(time.Minute)
	if done != 2 {
		t.Fatalf("done = %d, want 2 (absorbed request must complete)", done)
	}
	if disp.Served() != 1 {
		t.Fatalf("served = %d, want 1 merged dispatch", disp.Served())
	}
}

func TestEnqueueEmptyRequestPanics(t *testing.T) {
	k := sim.NewKernel(1)
	disp := NewDispatcher(k, "disp", newTestDisk(), NewNOOP())
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	disp.Enqueue(&Request{LBN: 0, Sectors: 0})
}

func TestSortedQueueMergeBounded(t *testing.T) {
	var q sortedQueue
	a := &Request{LBN: 0, Sectors: MaxMergeSectors}
	if q.insert(a) {
		t.Fatalf("first insert merged")
	}
	b := &Request{LBN: MaxMergeSectors, Sectors: 8}
	if q.insert(b) {
		t.Fatalf("merge exceeded MaxMergeSectors")
	}
	if q.len() != 2 {
		t.Fatalf("len = %d, want 2", q.len())
	}
}

func TestSortedQueueFrontMerge(t *testing.T) {
	var q sortedQueue
	q.insert(&Request{LBN: 8, Sectors: 8})
	if !q.insert(&Request{LBN: 0, Sectors: 8}) {
		t.Fatalf("front merge failed")
	}
	r := q.nextFrom(0)
	if r.LBN != 0 || r.Sectors != 16 {
		t.Fatalf("merged request = %+v", r)
	}
}

func TestSortedQueueWrapAround(t *testing.T) {
	var q sortedQueue
	q.insert(&Request{LBN: 100, Sectors: 8})
	q.insert(&Request{LBN: 200, Sectors: 8})
	r := q.nextFrom(500) // beyond all: wrap to lowest
	if r.LBN != 100 {
		t.Fatalf("wrap pick = %d, want 100", r.LBN)
	}
}

func TestSortedQueueNoMergeAcrossDirection(t *testing.T) {
	var q sortedQueue
	q.insert(&Request{LBN: 0, Sectors: 8, Write: false})
	if q.insert(&Request{LBN: 8, Sectors: 8, Write: true}) {
		t.Fatalf("read and write merged")
	}
}

func TestNamedBuildsEachElevator(t *testing.T) {
	for _, name := range []string{"cfq", "deadline", "noop", "anticipatory"} {
		mk := Named(name)
		if mk == nil {
			t.Fatalf("Named(%q) = nil", name)
		}
		if got := mk().Name(); got != name {
			t.Errorf("Named(%q) builds %q", name, got)
		}
		if mk() == mk() {
			t.Errorf("Named(%q) shares one elevator between servers", name)
		}
	}
	if Named("elevator") != nil {
		t.Error("unknown scheduler name resolved")
	}
}

// TestMergeListKeepsCapacityAcrossReset: a pooled request that absorbed
// merges keeps its merge list's backing array through completion and
// Reset, so serving a merge of the same size again allocates nothing.
func TestMergeListKeepsCapacityAcrossReset(t *testing.T) {
	var d Dispatcher // complete touches only the requests
	var q sortedQueue
	head := &Request{}
	var back, front [2]*Request
	for i := range back {
		back[i], front[i] = &Request{}, &Request{}
	}
	serve := func() {
		head.LBN, head.Sectors = 64, 8
		q.insert(head)
		for i := range back {
			back[i].LBN, back[i].Sectors = 72+int64(i)*8, 8   // back merges
			front[i].LBN, front[i].Sectors = 56-int64(i)*8, 8 // front merges
			if !q.insert(back[i]) || !q.insert(front[i]) {
				t.Fatal("adjacent request did not merge")
			}
		}
		r := q.nextFrom(0)
		if r != head || r.Sectors != 40 || len(r.absorbed) != 4 {
			t.Fatalf("merged request %+v, want the head covering 40 sectors with 4 absorbed", r)
		}
		d.complete(r)
		head.Reset()
		for i := range back {
			back[i].Reset()
			front[i].Reset()
		}
	}
	serve() // the first merge sizes the list
	if allocs := testing.AllocsPerRun(10, serve); allocs != 0 {
		t.Fatalf("a repeated merge allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkCFQDispatch measures one CFQ dispatch and re-submission on a
// queue of eight origins, the even four holding one request each. A
// dispatched request completes past the idle window and goes back to its
// origin one dispatch later, so every Next ends the active slice and
// rotates the origin order past an empty origin to the next pending one.
func BenchmarkCFQDispatch(b *testing.B) {
	const origins = 8
	const step = cfqIdleWindow + time.Millisecond
	c := NewCFQ()
	var now time.Duration
	reqs := make([]*Request, origins)
	for o := range reqs {
		reqs[o] = &Request{LBN: int64(o) << 20, Sectors: 8, Origin: o}
		c.Add(reqs[o], now)
	}
	// Serve every origin once, then refill only the even ones.
	for range origins {
		r, _ := c.Next(now, 0)
		c.NotifyComplete(r, now)
		now += step
	}
	for o := 0; o < origins; o += 2 {
		c.Add(reqs[o], now)
	}
	const warm = 1024
	var head int64
	var prev *Request
	b.ReportAllocs()
	for i := 0; i < warm+b.N; i++ {
		if i == warm {
			b.ResetTimer()
		}
		r, _ := c.Next(now, head)
		if r == nil {
			b.Fatal("CFQ idled with requests pending")
		}
		head = r.End()
		c.NotifyComplete(r, now)
		now += step
		if prev != nil {
			c.Add(prev, now)
		}
		prev = r
	}
}
