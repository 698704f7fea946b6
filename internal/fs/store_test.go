package fs

import (
	"testing"
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/ext"
	"dualpar/internal/iosched"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

func newStore(k *sim.Kernel, cfg Config) *Store {
	return New(k, "s0", disk.New(1<<24), iosched.NewCFQ(), cfg, 1000)
}

func TestCreateAllocatesContiguously(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, DefaultConfig())
	s.Create("a", 10<<20)
	f := s.eng.(*extentEngine).files["a"]
	if len(f.extents) != 1 {
		t.Fatalf("extents = %d, want 1 contiguous", len(f.extents))
	}
	if f.size < 10<<20 {
		t.Fatalf("size = %d, want >= 10MB", f.size)
	}
}

func TestTwoFilesSeparatedByGap(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	s := newStore(k, cfg)
	s.Create("a", 1<<20)
	s.Create("b", 1<<20)
	ra := s.eng.ReadRuns(nil, "a", 0, 1<<20)
	rb := s.eng.ReadRuns(nil, "b", 0, 1<<20)
	gap := (rb[0].lbn - ra[0].lbn) * disk.SectorSize
	if gap < fileGapBytes {
		t.Fatalf("inter-file LBN gap = %d bytes, want >= %d", gap, fileGapBytes)
	}
}

func TestInterleavedGrowthFragments(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.AllocUnitBytes = 1 << 20
	s := newStore(k, cfg)
	// Alternate growth between two files: each must get multiple extents.
	for i := 0; i < 4; i++ {
		s.Create("a", int64(i+1)<<20)
		s.Create("b", int64(i+1)<<20)
	}
	if n := len(s.eng.(*extentEngine).files["a"].extents); n < 2 {
		t.Fatalf("file a extents = %d, want fragmentation under interleaved growth", n)
	}
}

func TestRunsSplitAtExtentBoundaries(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.AllocUnitBytes = 1 << 20
	s := newStore(k, cfg)
	s.Create("a", 1<<20)
	s.Create("b", 1<<20) // forces a's next extent to be discontiguous
	s.Create("a", 2<<20)
	runs := s.eng.ReadRuns(nil, "a", 512<<10, 1<<20) // spans the extent boundary
	if len(runs) != 2 {
		t.Fatalf("runs = %d, want 2 across fragmented extents", len(runs))
	}
	if runs[0].bytes+runs[1].bytes != 1<<20 {
		t.Fatalf("run bytes = %d+%d, want 1MB total", runs[0].bytes, runs[1].bytes)
	}
}

func TestReadColdThenCachedFaster(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, DefaultConfig())
	s.Create("a", 1<<20)
	var cold, warm time.Duration
	k.Spawn("reader", func(p *sim.Proc) {
		t0 := p.Now()
		s.Read(p, "a", 0, 256<<10, 1)
		cold = p.Now() - t0
		t0 = p.Now()
		s.Read(p, "a", 0, 256<<10, 1)
		warm = p.Now() - t0
	})
	k.RunUntil(time.Minute)
	if cold == 0 || warm == 0 {
		t.Fatalf("cold=%v warm=%v; both must take time", cold, warm)
	}
	if warm*10 >= cold {
		t.Fatalf("warm read %v not much faster than cold %v", warm, cold)
	}
	if s.CacheMissPages() == 0 || s.CacheHitPages() == 0 {
		t.Fatalf("hit/miss counters: %d/%d", s.CacheHitPages(), s.CacheMissPages())
	}
}

func TestSyncWriteTouchesDisk(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.SyncWrites = true
	s := newStore(k, cfg)
	k.Spawn("writer", func(p *sim.Proc) {
		s.Write(p, "a", 0, 64<<10, 1)
	})
	k.RunUntil(time.Minute)
	if s.Device().Stats().BytesWritten == 0 {
		t.Fatalf("sync write did not reach the device")
	}
}

func TestAsyncWriteBuffersThenFlushes(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.SyncWrites = false
	s := newStore(k, cfg)
	var ackedAt time.Duration
	k.Spawn("writer", func(p *sim.Proc) {
		s.Write(p, "a", 0, 64<<10, 1)
		ackedAt = p.Now()
	})
	k.RunUntil(100 * time.Millisecond)
	if s.Device().Stats().BytesWritten != 0 {
		t.Fatalf("async write hit disk before flush interval")
	}
	if s.DirtyBytes() == 0 {
		t.Fatalf("no dirty bytes after async write")
	}
	k.RunUntil(3 * time.Second)
	if s.Device().Stats().BytesWritten == 0 {
		t.Fatalf("flusher never wrote back")
	}
	if s.DirtyBytes() != 0 {
		t.Fatalf("dirty bytes = %d after flush", s.DirtyBytes())
	}
	if ackedAt > 50*time.Millisecond {
		t.Fatalf("async write acked at %v, should be fast", ackedAt)
	}
}

func TestDirtyThrottleBlocksWriter(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.SyncWrites = false
	cfg.CacheBytes = 4 << 20
	cfg.DirtyLimitBytes = 1 << 20
	s := newStore(k, cfg)
	var wrote int64
	k.Spawn("writer", func(p *sim.Proc) {
		for i := int64(0); i < 64; i++ {
			s.Write(p, "a", i*256<<10, 256<<10, 1)
			wrote += 256 << 10
		}
	})
	k.RunUntil(20 * time.Millisecond)
	if wrote >= 64*256<<10 {
		t.Fatalf("writer never throttled: wrote %d quickly", wrote)
	}
	k.RunUntil(2 * time.Minute)
	if wrote != 64*256<<10 {
		t.Fatalf("writer did not finish after flushing: wrote %d", wrote)
	}
}

func TestSyncDrainsDirty(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.SyncWrites = false
	s := newStore(k, cfg)
	k.Spawn("writer", func(p *sim.Proc) {
		s.Write(p, "a", 0, 1<<20, 1)
		s.Sync(p)
		if s.DirtyBytes() != 0 {
			t.Errorf("dirty = %d after Sync", s.DirtyBytes())
		}
	})
	k.RunUntil(time.Minute)
	if s.Device().Stats().BytesWritten == 0 {
		t.Fatalf("Sync did not flush")
	}
}

func TestLargeReadFewDiskRequests(t *testing.T) {
	// A single large contiguous read should reach the disk as a small
	// number of large requests, not per-page requests.
	k := sim.NewKernel(1)
	s := newStore(k, DefaultConfig())
	s.Create("a", 4<<20)
	k.Spawn("reader", func(p *sim.Proc) {
		s.Read(p, "a", 0, 4<<20, 1)
	})
	k.RunUntil(time.Minute)
	if a := s.Device().Stats().Accesses; a > 16 {
		t.Fatalf("disk accesses = %d for one 4MB read, want few large requests", a)
	}
}

func TestNoReadAheadByDefault(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, DefaultConfig())
	s.Create("a", 1<<20)
	k.Spawn("reader", func(p *sim.Proc) {
		s.Read(p, "a", 0, 4<<10, 1)
	})
	k.RunUntil(time.Minute)
	if got := s.Device().Stats().BytesRead; got > 8<<10 {
		t.Fatalf("device read %d bytes for a 4KB request; the store has no readahead", got)
	}
}

func TestConcurrentReadersNoDuplicateFetch(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, DefaultConfig())
	s.Create("a", 1<<20)
	for i := 0; i < 4; i++ {
		k.Spawn("reader", func(p *sim.Proc) {
			s.Read(p, "a", 0, 1<<20, 1)
		})
	}
	k.RunUntil(time.Minute)
	if got := s.Device().Stats().BytesRead; got > 1<<20 {
		t.Fatalf("device read %d bytes, want <= 1MB (no duplicate fetches)", got)
	}
}

func TestWriteExtendsFile(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, DefaultConfig())
	k.Spawn("writer", func(p *sim.Proc) {
		s.Write(p, "grow", 5<<20, 1<<20, 1)
	})
	k.RunUntil(time.Minute)
	if sz := s.FileSize("grow"); sz < 6<<20 {
		t.Fatalf("file size = %d, want >= 6MB after write at offset 5MB", sz)
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	bad := []struct {
		name   string
		mutate func(*Config)
	}{
		{"CacheBytes=0", func(c *Config) { c.CacheBytes = 0 }},
		{"DirtyLimit>Cache", func(c *Config) { c.DirtyLimitBytes = c.CacheBytes + 1 }},
		{"WritebackEvery=0", func(c *Config) { c.WritebackEvery = 0 }},
		{"WritebackBatch=0", func(c *Config) { c.WritebackBatchBytes = 0 }},
		{"AllocUnit=0", func(c *Config) { c.AllocUnitBytes = 0 }},
		// Misaligned byte budgets must be rejected, not silently truncated
		// (capPages = CacheBytes/pageSize).
		{"CacheBytes misaligned", func(c *Config) { c.CacheBytes += 1 }},
		{"CacheBytes off by a page half", func(c *Config) { c.CacheBytes -= pageSize / 2 }},
		{"DirtyLimit misaligned", func(c *Config) { c.DirtyLimitBytes += 7 }},
		{"unknown engine", func(c *Config) { c.Engine = "btrfs" }},
	}
	for _, tc := range bad {
		c := DefaultConfig()
		tc.mutate(&c)
		if c.Validate() == nil {
			t.Fatalf("case %q passed Validate", tc.name)
		}
	}
	for _, eng := range Engines() {
		c := DefaultConfig()
		c.Engine = eng
		if err := c.Validate(); err != nil {
			t.Fatalf("engine %q rejected: %v", eng, err)
		}
	}
}

func TestEvictionKeepsCacheBounded(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 20 // 256 pages
	cfg.DirtyLimitBytes = 512 << 10
	s := newStore(k, cfg)
	s.Create("a", 8<<20)
	k.Spawn("reader", func(p *sim.Proc) {
		s.Read(p, "a", 0, 8<<20, 1)
	})
	k.RunUntil(time.Minute)
	if got := s.cache.resident * pageSize; got > cfg.CacheBytes {
		t.Fatalf("resident = %d bytes, cache bound %d", got, cfg.CacheBytes)
	}
}

func TestReadMultiBatchesAcrossExtents(t *testing.T) {
	// A multi-extent read must enqueue all runs before waiting, so the
	// elevator can sort the whole batch (list-I/O semantics).
	k := sim.NewKernel(1)
	s := newStore(k, DefaultConfig())
	s.Create("a", 8<<20)
	var batched time.Duration
	k.Spawn("reader", func(p *sim.Proc) {
		t0 := p.Now()
		s.ReadMulti(p, "a", []ext.Extent{
			{Off: 6 << 20, Len: 256 << 10},
			{Off: 0, Len: 256 << 10},
			{Off: 3 << 20, Len: 256 << 10},
		}, 1, obs.Ctx{})
		batched = p.Now() - t0
	})
	k.RunUntil(time.Minute)
	// Serial submission pays three positioning delays in issue order; the
	// batch should cost less than three isolated reads of the same ranges.
	k2 := sim.NewKernel(1)
	s2 := newStore(k2, DefaultConfig())
	s2.Create("a", 8<<20)
	var serial time.Duration
	k2.Spawn("reader", func(p *sim.Proc) {
		t0 := p.Now()
		s2.Read(p, "a", 6<<20, 256<<10, 1)
		s2.Read(p, "a", 0, 256<<10, 1)
		s2.Read(p, "a", 3<<20, 256<<10, 1)
		serial = p.Now() - t0
	})
	k2.RunUntil(time.Minute)
	if batched >= serial {
		t.Fatalf("batched %v not faster than serial %v", batched, serial)
	}
}

func TestWriteMultiSyncConservesBytes(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, DefaultConfig())
	extents := []ext.Extent{{Off: 0, Len: 100}, {Off: 4096, Len: 200}, {Off: 1 << 20, Len: 300}}
	k.Spawn("writer", func(p *sim.Proc) {
		s.WriteMulti(p, "w", extents, 1, obs.Ctx{})
	})
	k.RunUntil(time.Minute)
	if s.BytesWritten() != 600 {
		t.Fatalf("store write bytes = %d, want 600", s.BytesWritten())
	}
	// The device rounds to sectors but must cover at least the data.
	if got := s.Device().Stats().BytesWritten; got < 600 {
		t.Fatalf("device write bytes = %d, want >= 600", got)
	}
}

func TestZeroLengthOpsAreNoOps(t *testing.T) {
	k := sim.NewKernel(1)
	s := newStore(k, DefaultConfig())
	k.Spawn("p", func(p *sim.Proc) {
		s.Read(p, "a", 0, 0, 1)
		s.Write(p, "a", 0, 0, 1)
		s.ReadMulti(p, "a", nil, 1, obs.Ctx{})
		s.WriteMulti(p, "a", []ext.Extent{{Off: 5, Len: 0}}, 1, obs.Ctx{})
	})
	k.RunUntil(time.Minute)
	if s.BytesRead() != 0 || s.BytesWritten() != 0 {
		t.Fatalf("zero-length ops moved bytes: %d/%d", s.BytesRead(), s.BytesWritten())
	}
	if s.Device().Stats().Accesses != 0 {
		t.Fatalf("zero-length ops touched the device")
	}
}

func TestAsyncWritebackHighWaterKicksEarly(t *testing.T) {
	// Exceeding the dirty limit must trigger writeback before the periodic
	// interval.
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.SyncWrites = false
	cfg.DirtyLimitBytes = 1 << 20
	cfg.WritebackEvery = 10 * time.Second
	s := newStore(k, cfg)
	k.Spawn("writer", func(p *sim.Proc) {
		s.Write(p, "a", 0, 4<<20, 1)
	})
	k.RunUntil(2 * time.Second)
	if s.Device().Stats().BytesWritten == 0 {
		t.Fatalf("high-water mark did not kick the flusher before the interval")
	}
}
