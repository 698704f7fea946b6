package sim

import (
	"math/bits"
	"testing"
)

type poolRec struct{ n int }

func TestPoolGetIsLIFO(t *testing.T) {
	var p Pool[poolRec]
	a, b, c := &poolRec{1}, &poolRec{2}, &poolRec{3}
	p.Put(a)
	p.Put(b)
	p.Put(c)
	for i, want := range []*poolRec{c, b, a} {
		if got := p.Get(); got != want {
			t.Fatalf("Get %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestPoolGetEmptyReturnsDistinctZero(t *testing.T) {
	var p Pool[poolRec]
	x, y := p.Get(), p.Get()
	if x == nil || y == nil || x == y {
		t.Fatalf("two Gets on an empty pool = %p, %p, want distinct records", x, y)
	}
	if *x != (poolRec{}) || *y != (poolRec{}) {
		t.Fatalf("empty-pool Gets = %+v, %+v, want zero records", *x, *y)
	}
	// A Put record comes back as it was put; the owner resets it first.
	x.n = 7
	p.Put(x)
	if got := p.Get(); got != x || got.n != 7 {
		t.Fatalf("Get after Put = %p %+v, want %p {n:7}", got, *got, x)
	}
}

func TestPoolLenTracksPutAndGet(t *testing.T) {
	var p Pool[poolRec]
	if p.Len() != 0 {
		t.Fatalf("zero pool Len = %d", p.Len())
	}
	for i := 1; i <= 5; i++ {
		p.Put(&poolRec{i})
		if p.Len() != i {
			t.Fatalf("after %d Puts Len = %d", i, p.Len())
		}
	}
	for i := 4; i >= 0; i-- {
		p.Get()
		if p.Len() != i {
			t.Fatalf("Len = %d, want %d", p.Len(), i)
		}
	}
	p.Get() // empty: allocates, pools nothing
	if p.Len() != 0 {
		t.Fatalf("Get on an empty pool left Len = %d", p.Len())
	}
}

func TestPoolWarmCycleAllocatesNothing(t *testing.T) {
	var p Pool[poolRec]
	p.Put(new(poolRec))
	p.Put(new(poolRec))
	allocs := testing.AllocsPerRun(1000, func() {
		x, y := p.Get(), p.Get()
		p.Put(x)
		p.Put(y)
	})
	if allocs != 0 {
		t.Fatalf("a warm Get/Put cycle allocates %.2f objects, want 0", allocs)
	}
}

// TestPoolColdGetsCarveChunks: Gets on a pool that was never Put carve
// their records from chunks that double, so N cold Gets allocate about
// log2(N) + N/64 times, and a pool that needs one record allocates once.
func TestPoolColdGetsCarveChunks(t *testing.T) {
	var p Pool[poolRec]
	for _, n := range []int{1, 2, 3, 16, 100, 1000} {
		got := make([]*poolRec, n) // the records escape, as pooled ones do
		allocs := testing.AllocsPerRun(20, func() {
			p = Pool[poolRec]{}
			for i := range got {
				got[i] = p.Get()
			}
		})
		limit := bits.Len(uint(n)) + 1 + n/maxChunk
		if n == 1 {
			limit = 1
		}
		if allocs > float64(limit) {
			t.Errorf("%d cold Gets allocate %.0f objects, want at most %d", n, allocs, limit)
		}
	}
}

// TestPoolCarvedRecordsStayPut: every carved record is zero, distinct
// from every other, and keeps its address and contents however many Gets
// and Puts follow, while a Put record still comes back as it was put.
func TestPoolCarvedRecordsStayPut(t *testing.T) {
	var p Pool[poolRec]
	var got []*poolRec
	seen := map[*poolRec]bool{}
	take := func(n int) {
		for i := 0; i < n; i++ {
			x := p.Get()
			if seen[x] {
				t.Fatalf("Get %d handed out a record twice", len(got))
			}
			if *x != (poolRec{}) {
				t.Fatalf("Get %d carved a dirty record %+v", len(got), *x)
			}
			seen[x] = true
			x.n = len(got)
			got = append(got, x)
		}
	}
	take(3)
	p.Put(got[1])
	if x := p.Get(); x != got[1] || x.n != 1 {
		t.Fatalf("Get after Put = %p %+v, want %p {n:1}", x, *x, got[1])
	}
	take(300)
	for i, x := range got {
		if x.n != i {
			t.Fatalf("record %d reads %d after later Gets", i, x.n)
		}
	}
}
