package sim

import "testing"

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
