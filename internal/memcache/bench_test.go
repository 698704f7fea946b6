package memcache

import (
	"testing"

	"dualpar/internal/ext"
	"dualpar/internal/netsim"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// benchGet measures one steady-state multi-get shaped like a noncontig
// rank's read: 32 cells of 2 KB, one per 128 KB row, so every cell lies in
// a different 64 KB chunk and the hits span four of the eight homes. The
// cache holds column 0 of every row; a hit reads column 0 again, a miss
// reads column 1, whose chunks are resident but do not cover it. The miss
// buffer is reused across Gets, as a rank reuses its own.
func benchGet(b *testing.B, hit bool) {
	const cell, row, rows = 2 << 10, 128 << 10, 32
	k := sim.NewKernel(1)
	c := New(k, netsim.New(), testChunk, []int{100, 101, 102, 103, 104, 105, 106, 107})
	cached := make([]ext.Extent, rows)
	req := make([]ext.Extent, rows)
	for i := range cached {
		cached[i] = ext.Extent{Off: int64(i) * row, Len: cell}
		req[i] = cached[i]
		if !hit {
			req[i].Off += cell
		}
	}
	const warm = 64
	k.Spawn("bench", func(p *sim.Proc) {
		c.PutClean(p, 100, obs.Ctx{}, "f", cached)
		var miss []ext.Extent
		for i := 0; i < warm+b.N; i++ {
			if i == warm {
				b.ResetTimer()
			}
			miss = c.Get(p, 100, obs.Ctx{}, "f", miss, req...)
			if (len(miss) == 0) != hit {
				b.Fatalf("Get missed %v, want hit=%v", miss, hit)
			}
		}
		b.StopTimer()
	})
	b.ReportAllocs()
	k.Run() // the idle sweeps drain the cache once the loop stops
}

func BenchmarkCacheGetHit(b *testing.B)  { benchGet(b, true) }
func BenchmarkCacheGetMiss(b *testing.B) { benchGet(b, false) }

// BenchmarkCachePut measures a steady-state dirty put shaped like a
// noncontig rank's writes landing in one warm chunk: 32 cells of 1 KB at a
// 2 KB stride, whose chunk already holds all 32 as valid ranges, so every
// valid insert searches the middle of a 32-extent list and covers nothing
// new, while the dirty list regrows from empty. MarkClean after each put
// keeps the state steady.
func BenchmarkCachePut(b *testing.B) {
	const cell, stride, cells = 1 << 10, 2 << 10, 32
	k := sim.NewKernel(1)
	c := New(k, netsim.New(), testChunk, []int{100, 101, 102, 103, 104, 105, 106, 107})
	req := make([]ext.Extent, cells)
	for i := range req {
		req[i] = ext.Extent{Off: int64(i) * stride, Len: cell}
	}
	const warm = 64
	k.Spawn("bench", func(p *sim.Proc) {
		c.PutClean(p, 100, obs.Ctx{}, "f", req)
		for i := 0; i < warm+b.N; i++ {
			if i == warm {
				b.ResetTimer()
			}
			c.PutDirty(p, 100, obs.Ctx{}, "f", req)
			c.MarkClean("f")
		}
		b.StopTimer()
		if got, want := c.UsedBytes(), int64(cells*cell); got != want {
			b.Fatalf("cache holds %d bytes, want %d", got, want)
		}
	})
	b.ReportAllocs()
	k.Run()
}
