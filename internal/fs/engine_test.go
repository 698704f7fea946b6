package fs

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/sim"
)

// forEachEngine runs the conformance test body once per storage engine.
func forEachEngine(t *testing.T, body func(t *testing.T, cfg Config)) {
	for _, eng := range Engines() {
		t.Run(eng, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Engine = eng
			body(t, cfg)
		})
	}
}

func TestEngineConformanceReadWrite(t *testing.T) {
	// Every engine must serve reads and sync writes through the device and
	// leave its layout bookkeeping consistent.
	forEachEngine(t, func(t *testing.T, cfg Config) {
		k := sim.NewKernel(1)
		s := newStore(k, cfg)
		s.Create("a", 4<<20)
		k.Spawn("worker", func(p *sim.Proc) {
			s.Read(p, "a", 0, 1<<20, 1)
			s.Write(p, "a", 512<<10, 1<<20, 1)
			s.Read(p, "a", 512<<10, 1<<20, 1)
		})
		k.RunUntil(time.Minute)
		st := s.Device().Stats()
		if st.BytesRead == 0 || st.BytesWritten == 0 {
			t.Fatalf("device traffic read=%d written=%d, want both nonzero", st.BytesRead, st.BytesWritten)
		}
		if got := s.FileSize("a"); got < 4<<20 {
			t.Fatalf("allocated size %d, want >= 4MB", got)
		}
		if err := s.Engine().CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
	})
}

func TestEngineConformanceDirtyThrottle(t *testing.T) {
	// The dirty-limit throttle lives above the engine: writers must block
	// when dirty bytes exceed the limit and finish once the flusher drains,
	// whichever engine decides where writeback lands.
	forEachEngine(t, func(t *testing.T, cfg Config) {
		cfg.SyncWrites = false
		cfg.CacheBytes = 4 << 20
		cfg.DirtyLimitBytes = 1 << 20
		k := sim.NewKernel(1)
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
		if err := s.Engine().CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
	})
}

func TestEngineConformanceEvictionBounded(t *testing.T) {
	// The eviction sweeper must keep residency at or under capacity while a
	// scan twice the cache size streams through, for every layout.
	forEachEngine(t, func(t *testing.T, cfg Config) {
		cfg.CacheBytes = 1 << 20
		cfg.DirtyLimitBytes = 512 << 10
		k := sim.NewKernel(1)
		s := newStore(k, cfg)
		s.Create("a", 8<<20)
		k.Spawn("reader", func(p *sim.Proc) {
			s.Read(p, "a", 0, 8<<20, 1)
		})
		k.RunUntil(time.Minute)
		if got := s.cache.resident * pageSize; got > cfg.CacheBytes {
			t.Fatalf("resident = %d bytes, cache bound %d", got, cfg.CacheBytes)
		}
		if err := s.Engine().CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
	})
}

func TestEngineConformanceInvariantsUnderChurn(t *testing.T) {
	// Mixed read/overwrite churn with async writeback: invariants must hold
	// at quiesce for every engine (for LSM this exercises the byte ledger
	// across log appends, supersedes, and compaction).
	forEachEngine(t, func(t *testing.T, cfg Config) {
		cfg.SyncWrites = false
		k := sim.NewKernel(1)
		s := newStore(k, cfg)
		if e, ok := s.Engine().(*lsmEngine); ok {
			e.segBytes = 256 << 10 // small segments so compaction fires
		}
		s.Create("a", 2<<20)
		s.Create("b", 2<<20)
		k.Spawn("churn", func(p *sim.Proc) {
			for round := 0; round < 6; round++ {
				for _, f := range []string{"a", "b"} {
					s.Write(p, f, int64(round%3)*512<<10, 512<<10, 1)
					s.Read(p, f, int64(round%4)*256<<10, 256<<10, 1)
				}
				s.Sync(p)
			}
		})
		k.RunUntil(5 * time.Minute)
		if err := s.Engine().CheckInvariants(); err != nil {
			t.Fatalf("invariants after churn: %v", err)
		}
	})
}

func TestAgedLayoutFragments(t *testing.T) {
	// The aged layout deliberately fragments: every extent is exactly one
	// allocation step, the cursor skips at least the gap after each, and
	// no two steps merge. The extent engine lays the same file out as one
	// extent.
	const size = 64 << 20
	cfg := DefaultConfig()
	cfg.Engine = EngineBPTree
	e := newEngine(cfg).(*extentEngine)
	e.Ensure("a", size)
	f := e.files["a"]
	if want := size / e.unit; int64(len(f.extents)) != want {
		t.Fatalf("aged extents = %d, want %d of %d bytes", len(f.extents), want, e.unit)
	}
	for i, x := range f.extents {
		if x.bytes != e.unit {
			t.Fatalf("aged extent %d is %d bytes, want one %d-byte step", i, x.bytes, e.unit)
		}
		if i == 0 {
			continue
		}
		prev := f.extents[i-1]
		if gap := (x.lbn - prev.lbn - prev.bytes/disk.SectorSize) * disk.SectorSize; gap < e.gap {
			t.Fatalf("aged extents %d and %d are %d bytes apart on disk, want >= %d", i-1, i, gap, e.gap)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}

	flat := newEngine(DefaultConfig()).(*extentEngine)
	flat.Ensure("a", size)
	if got := flat.files["a"].extents; len(got) != 1 || got[0].bytes != size {
		t.Fatalf("extent engine lays %d bytes out as %+v, want one extent", size, got)
	}
}

// linearRuns is the reference lookup: a scan of every extent of f.
func linearRuns(f *fileMeta, off, n int64) []lbnRun {
	var out []lbnRun
	for _, x := range f.extents {
		lo, hi := max(off, x.fileOff), min(off+n, x.fileOff+x.bytes)
		if lo < hi {
			out = append(out, lbnRun{lbn: x.lbn + (lo-x.fileOff)/disk.SectorSize, bytes: hi - lo})
		}
	}
	return out
}

func TestExtentLookupMatchesLinearScan(t *testing.T) {
	// The binary-search lookup behind ReadRuns and locate must agree with a
	// linear scan, at random offsets and lengths and at extent boundaries,
	// on both update-in-place layouts with files grown interleaved.
	for _, kind := range []string{EngineExtent, EngineBPTree} {
		t.Run(kind, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Engine = kind
			cfg.AllocUnitBytes = 1 << 20 // interleaved growth fragments the extent layout too
			e := newEngine(cfg).(*extentEngine)
			files := []string{"a", "b", "c"}
			for step := int64(1); step <= 8; step++ {
				for i, name := range files {
					e.Ensure(name, step*int64(i+1)<<20+int64(i)*12345)
				}
			}
			rng := rand.New(rand.NewSource(1))
			for _, name := range files {
				f := e.files[name]
				if len(f.extents) < 2 {
					t.Fatalf("file %s has %d extents, want a fragmented map", name, len(f.extents))
				}
				var offs []int64
				for _, x := range f.extents {
					offs = append(offs, x.fileOff-1, x.fileOff, x.fileOff+1, x.fileOff+x.bytes-1)
				}
				for i := 0; i < 200; i++ {
					offs = append(offs, rng.Int63n(f.size+1<<20))
				}
				for _, off := range offs {
					ns := []int64{1, pageSize, rng.Int63n(4<<20) + 1}
					if i := f.find(off); i < len(f.extents) {
						ns = append(ns, f.extents[i].fileOff+f.extents[i].bytes-off) // to the boundary
					}
					for _, n := range ns {
						got := e.ReadRuns(nil, name, off, n)
						if want := linearRuns(f, off, n); !slices.Equal(got, want) {
							t.Fatalf("%s [%d,+%d): ReadRuns %v, linear scan %v", name, off, n, got, want)
						}
					}
					x, ok := e.locate(name, off)
					want := linearRuns(f, off, 1)
					if ok != (len(want) == 1) || ok && x.lbn+(off-x.fileOff)/disk.SectorSize != want[0].lbn {
						t.Fatalf("%s locate(%d) = %+v %v, linear scan %v", name, off, x, ok, want)
					}
				}
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
		})
	}
}

func TestExtentInvariantsCatchOverlap(t *testing.T) {
	// One extent moved one sector into another file's extent keeps file
	// space contiguous and covered; only the LBN overlap check sees it.
	for _, kind := range []string{EngineExtent, EngineBPTree} {
		t.Run(kind, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Engine = kind
			cfg.AllocUnitBytes = 1 << 20
			e := newEngine(cfg).(*extentEngine)
			for step := int64(1); step <= 4; step++ {
				e.Ensure("a", step<<20)
				e.Ensure("b", step<<20)
			}
			if err := e.CheckInvariants(); err != nil {
				t.Fatalf("invariants before the injection: %v", err)
			}
			a, b := e.files["a"].extents, e.files["b"].extents
			x := &b[len(b)-1]
			x.lbn = a[1].lbn + a[1].bytes/disk.SectorSize - 1
			err := e.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), "LBN overlap") {
				t.Fatalf("invariants after overlapping b's last extent with a's second: %v, want an LBN overlap", err)
			}
		})
	}
}

func TestLSMWritebackSequential(t *testing.T) {
	// Scattered logical writes must land as one sequential append run at
	// the head of the log.
	cfg := DefaultConfig()
	cfg.Engine = EngineLSM
	k := sim.NewKernel(1)
	s := newStore(k, cfg)
	s.Create("a", 8<<20)
	e := s.Engine().(*lsmEngine)
	var runs []lbnRun
	// Backward-scattered writes: worst case for update-in-place, one
	// contiguous run for the log.
	for _, off := range []int64{6 << 20, 2 << 20, 4 << 20, 0} {
		runs = e.WriteRuns(runs, "a", off, 64<<10)
	}
	if len(runs) != 1 {
		t.Fatalf("scattered writes produced %d log runs, want 1 sequential", len(runs))
	}
	if runs[0].bytes != 4*64<<10 {
		t.Fatalf("log run %d bytes, want %d", runs[0].bytes, 4*64<<10)
	}
	// Reads chase the pages into the log.
	rd := e.ReadRuns(nil, "a", 0, 64<<10)
	if len(rd) != 1 || rd[0].lbn < runs[0].lbn || rd[0].lbn >= runs[0].lbn+runs[0].bytes/disk.SectorSize {
		t.Fatalf("read of overwritten range resolves to %+v, want inside log run %+v", rd, runs[0])
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestLSMCompactionConservesBytes(t *testing.T) {
	// Overwriting the same range repeatedly fills segments with garbage;
	// the compactor must reclaim them, the byte ledger must balance, and
	// its disk traffic must be visible on the device.
	cfg := DefaultConfig()
	cfg.Engine = EngineLSM
	k := sim.NewKernel(1)
	s := newStore(k, cfg)
	e := s.Engine().(*lsmEngine)
	e.segBytes, e.compactBps = 128<<10, 64<<20
	s.Create("a", 1<<20)
	k.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			s.Write(p, "a", 0, 256<<10, 1) // overwrite the same 64 pages
			p.Sleep(50 * time.Millisecond)
		}
	})
	k.RunUntil(10 * time.Minute)
	absorbed, compacted, reclaimed, live := e.Stats()
	if absorbed != 20*256<<10 {
		t.Fatalf("absorbed %d bytes, want %d", absorbed, 20*256<<10)
	}
	if reclaimed == 0 {
		t.Fatalf("compactor never reclaimed a segment (absorbed %d, segments of %d)", absorbed, e.segBytes)
	}
	if live != 256<<10 {
		t.Fatalf("live %d bytes, want %d (one copy of the working set)", live, 256<<10)
	}
	_ = compacted
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("byte ledger: %v", err)
	}
}

func TestLSMCompactionThrottled(t *testing.T) {
	// The same garbage load compacted at a lower bandwidth cap must spread
	// its device traffic over more time (throttle actually binds).
	run := func(bps float64) time.Duration {
		cfg := DefaultConfig()
		cfg.Engine = EngineLSM
		k := sim.NewKernel(1)
		s := newStore(k, cfg)
		e := s.Engine().(*lsmEngine)
		e.segBytes, e.compactBps = 128<<10, bps
		s.Create("a", 2<<20)
		k.Spawn("writer", func(p *sim.Proc) {
			// Fill a segment, then supersede half of it: the victim keeps
			// live pages, so compaction must actually move (throttled) data.
			for i := int64(0); i < 10; i++ {
				s.Write(p, "a", i*128<<10, 128<<10, 1)
				s.Write(p, "a", i*128<<10, 64<<10, 1)
			}
		})
		last := time.Duration(0)
		k.Spawn("probe", func(p *sim.Proc) {
			for {
				if _, _, reclaimed, _ := e.Stats(); reclaimed > 0 {
					before := reclaimed
					p.Sleep(500 * time.Millisecond)
					if _, _, after, _ := e.Stats(); after == before {
						last = p.Now()
						return
					}
					continue
				}
				p.Sleep(10 * time.Millisecond)
			}
		})
		k.RunUntil(10 * time.Minute)
		return last
	}
	fast, slow := run(256<<20), run(1<<20)
	if fast == 0 || slow == 0 {
		t.Fatalf("compaction never quiesced: fast=%v slow=%v", fast, slow)
	}
	if slow <= fast {
		t.Fatalf("throttled compaction finished at %v, unthrottled at %v; throttle has no effect", slow, fast)
	}
}

// --- satellite regressions ---

func TestMakeRoomManyDirtiersTinyCache(t *testing.T) {
	// Regression for the all-dirty-cache path in pageCache.makeRoom: with a
	// cache only a few pages big and many concurrent dirtiers (plus readers
	// forcing clean insertions), every blocked writer must eventually be
	// woken by the flusher — no lost wakeups, no livelock — and residency
	// must never exceed capacity.
	cfg := DefaultConfig()
	cfg.SyncWrites = false
	cfg.CacheBytes = 4 << 12 // 4 pages
	cfg.DirtyLimitBytes = 2 << 12
	cfg.WritebackBatchBytes = 1 << 12
	cfg.WritebackEvery = 10 * time.Millisecond
	k := sim.NewKernel(1)
	s := newStore(k, cfg)
	s.Create("a", 1<<20)
	capPages := cfg.CacheBytes / pageSize
	done := 0
	const writers, pagesEach = 8, 32
	for w := 0; w < writers; w++ {
		off := int64(w) * pagesEach << 12
		k.Spawn("dirtier", func(p *sim.Proc) {
			for i := int64(0); i < pagesEach; i++ {
				s.Write(p, "a", off+i<<12, 1<<12, 1)
			}
			done++
		})
	}
	k.Spawn("reader", func(p *sim.Proc) {
		for i := int64(0); i < pagesEach; i++ {
			s.Read(p, "a", (200+i)<<12, 1<<12, 2)
		}
	})
	k.Spawn("monitor", func(p *sim.Proc) {
		for {
			if got := s.cache.resident; got > capPages {
				t.Errorf("resident %d pages at %v, cap %d", got, p.Now(), capPages)
				return
			}
			p.Sleep(time.Millisecond)
		}
	})
	k.RunUntil(5 * time.Minute)
	if done != writers {
		t.Fatalf("%d/%d dirtiers finished; writers lost a wakeup in makeRoom", done, writers)
	}
	k.RunUntil(6 * time.Minute)
	if s.DirtyBytes() != 0 {
		t.Fatalf("dirty bytes = %d after quiesce", s.DirtyBytes())
	}
}

func TestLSMUnmappedReadMatchesPageWalk(t *testing.T) {
	// A file with no relocated page reads its base layout whole. That must
	// give the runs the page-by-page walk gives, on either update-in-place
	// base layout, for reads at sector granularity that start and end off
	// page and extent boundaries or run into the unallocated hole past a
	// file's end. (The store reads whole pages; a read starting inside a
	// sector is the one case where the page walk splits runs the base
	// layout keeps whole.)
	for _, base := range []func(Config) *extentEngine{newExtentEngine, newAgedEngine} {
		cfg := DefaultConfig()
		cfg.AllocUnitBytes = 1 << 20 // interleaved growth fragments the extent layout too
		e := newLSMEngine(cfg)
		e.inner = base(cfg)
		t.Run(e.inner.Kind(), func(t *testing.T) {
			files := []string{"a", "b", "c"}
			for step := int64(1); step <= 8; step++ {
				for i, name := range files {
					e.Ensure(name, step*int64(i+1)<<20+int64(i)*12345)
				}
			}
			rng := rand.New(rand.NewSource(1))
			sector := int64(disk.SectorSize)
			for _, name := range files {
				m := e.inner.files[name]
				if len(m.extents) < 2 {
					t.Fatalf("file %s has %d extents, want a fragmented map", name, len(m.extents))
				}
				var offs []int64
				for i := 0; i < len(m.extents); i += max(len(m.extents)/64, 1) {
					x := m.extents[i]
					offs = append(offs, x.fileOff-sector, x.fileOff, x.fileOff+sector, x.fileOff+x.bytes-sector)
				}
				for i := 0; i < 200; i++ {
					offs = append(offs, rng.Int63n(m.size+1<<20)/sector*sector)
				}
				for _, off := range offs {
					if off < 0 {
						continue
					}
					for _, n := range []int64{1, sector, pageSize, pageSize + 3*sector, rng.Int63n(4<<20) + 1} {
						got := e.ReadRuns(nil, name, off, n)
						want := e.pageRuns(nil, e.file(name), off, n)
						if !slices.Equal(got, want) {
							t.Fatalf("%s [%d,+%d): ReadRuns %v, page walk %v", name, off, n, got, want)
						}
					}
				}
			}
			if got := e.ReadRuns(nil, "never-created", 0, 1<<20); len(got) != 0 {
				t.Fatalf("read of an unknown file: %v, want no runs", got)
			}
			if _, ok := e.inner.files["never-created"]; ok {
				t.Fatalf("a read created the file in the base layout")
			}
		})
	}
}
