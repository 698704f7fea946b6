package burst

import (
	"errors"
	"testing"
	"time"

	"dualpar/internal/check"
	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/pfs"
	"dualpar/internal/sim"
)

// fakeWriter records every PFS write the drainer issues, optionally
// failing each one with err after sleeping dur.
type fakeWriter struct {
	dur    time.Duration
	err    error
	writes []fakeWrite
}

type fakeWrite struct {
	file string
	x    ext.Extent
	at   time.Duration
}

func (w *fakeWriter) Write(p *sim.Proc, name string, extents []ext.Extent, origin int, rc obs.Ctx) error {
	if w.dur > 0 {
		p.Sleep(w.dur)
	}
	if w.err != nil {
		return w.err
	}
	for _, x := range extents {
		w.writes = append(w.writes, fakeWrite{file: name, x: x, at: p.Now()})
	}
	return nil
}

// testTier builds a single-node tier over a fakeWriter. The config drains
// 1 KiB records in exactly 1 s each, with instant absorb and free seals,
// so tests can place crashes at precise points of the drain timeline.
func testTier(k *sim.Kernel, cfg Config) (*Tier, *fakeWriter) {
	w := &fakeWriter{}
	return NewTier(k, cfg, func(int) Writer { return w }), w
}

var testCfg = Config{
	CapacityBytes: 1 << 20,
	AbsorbBps:     1 << 40, // instant absorb
	DrainBps:      1 << 10, // 1 KiB/s: one 1 KiB record drains in 1 s
	SealLatency:   0,
}

func rec(off int64) []ext.Extent { return []ext.Extent{{Off: off, Len: 1 << 10}} }

func checkConserved(t *testing.T, s Stats) {
	t.Helper()
	if got := s.Drained + s.Replayed + s.Discarded + s.Resident; got != s.Absorbed {
		t.Fatalf("bytes not conserved: absorbed %d, accounted %d (%+v)", s.Absorbed, got, s)
	}
}

func TestAbsorbDrainInOrder(t *testing.T) {
	k := sim.NewKernel(1)
	tier, w := testTier(k, testCfg)
	var drainErr error = errors.New("not run")
	k.Spawn("writer", func(p *sim.Proc) {
		l := tier.Log(0)
		l.Append(p, 0, 1, "f", rec(0))
		l.Append(p, 0, 1, "f", rec(1024))
		l.Seal(p, 0, 1)
		l.Append(p, 0, 2, "f", rec(2048))
		l.Seal(p, 0, 2)
		drainErr = tier.WaitDrained(p)
	})
	k.RunUntil(time.Hour)
	if drainErr != nil {
		t.Fatal(drainErr)
	}
	if len(w.writes) != 3 {
		t.Fatalf("drained %d records, want 3", len(w.writes))
	}
	for i, want := range []int64{0, 1024, 2048} {
		if w.writes[i].x.Off != want {
			t.Errorf("drain %d wrote offset %d, want %d (log order)", i, w.writes[i].x.Off, want)
		}
	}
	s := tier.Stats()
	checkConserved(t, s)
	if s.Resident != 0 || s.Drained != 3<<10 || s.Replayed != 0 || s.Discarded != 0 {
		t.Fatalf("stats %+v, want everything drained", s)
	}
	if s.DrainOps != 3 || s.DrainLag <= 0 || s.DrainMax <= 0 {
		t.Fatalf("drain lag not tracked: %+v", s)
	}
}

func TestBackpressureStallsWriter(t *testing.T) {
	k := sim.NewKernel(1)
	cfg := testCfg
	cfg.CapacityBytes = 2 << 10 // room for two records
	tier, w := testTier(k, cfg)
	k.Spawn("writer", func(p *sim.Proc) {
		l := tier.Log(0)
		for e := 1; e <= 4; e++ {
			l.Append(p, 0, e, "f", rec(int64(e-1)*1024))
			l.Seal(p, 0, e)
		}
		if err := tier.WaitDrained(p); err != nil {
			t.Error(err)
		}
	})
	k.RunUntil(time.Hour)
	if len(w.writes) != 4 {
		t.Fatalf("drained %d records, want 4", len(w.writes))
	}
	s := tier.Stats()
	checkConserved(t, s)
	// Records 1+2 fill the log; append 3 must wait for drain 1 (~1 s).
	if s.Stall < 900*time.Millisecond {
		t.Fatalf("capacity-full append stalled %v, want ≈1s of backpressure", s.Stall)
	}
}

func TestCrashBetweenSealAndDrainReplaysOnce(t *testing.T) {
	k := sim.NewKernel(1)
	tier, w := testTier(k, testCfg)
	var recovered error = errors.New("not run")
	k.Spawn("writer", func(p *sim.Proc) {
		l := tier.Log(0)
		l.Append(p, 0, 1, "f", rec(0))
		l.Append(p, 0, 1, "f", rec(1024))
		l.Seal(p, 0, 1)
		// Crash before yielding: the drainer (woken by the seal) has not
		// run yet, so both sealed records are resident — the precise
		// "sealed but drain not started" point.
		tier.CrashNode(0, p.Now())
	})
	k.RunUntil(time.Hour)
	if len(w.writes) != 0 {
		t.Fatalf("crashed log drained %d records before recovery", len(w.writes))
	}
	k.Spawn("recovery", func(p *sim.Proc) { recovered = tier.Recover(p) })
	k.RunUntil(2 * time.Hour)
	if recovered != nil {
		t.Fatal(recovered)
	}
	if len(w.writes) != 2 {
		t.Fatalf("replayed %d records, want exactly 2 (no loss, no double-apply)", len(w.writes))
	}
	s := tier.Stats()
	checkConserved(t, s)
	if s.Drained != 0 || s.Replayed != 2<<10 || s.Discarded != 0 || s.Resident != 0 {
		t.Fatalf("stats %+v, want both records replayed", s)
	}
}

func TestCrashMidDrainCompletesInFlightOnly(t *testing.T) {
	k := sim.NewKernel(1)
	tier, w := testTier(k, testCfg)
	k.Spawn("writer", func(p *sim.Proc) {
		l := tier.Log(0)
		l.Append(p, 0, 1, "f", rec(0))
		l.Append(p, 0, 1, "f", rec(1024))
		l.Seal(p, 0, 1)
	})
	// Record 1 drains over [0s,1s], record 2 over [1s,2s]: a crash at
	// 500ms lands mid-drain of record 1. Drain completion removes the
	// record atomically, so record 1 finishes and is never replayed;
	// record 2 stays resident for recovery.
	k.After(500*time.Millisecond, func() { tier.CrashNode(0, k.Now()) })
	k.RunUntil(time.Hour)
	if len(w.writes) != 1 || w.writes[0].x.Off != 0 {
		t.Fatalf("pre-recovery writes %+v, want exactly the in-flight record", w.writes)
	}
	k.Spawn("recovery", func(p *sim.Proc) {
		if err := tier.Recover(p); err != nil {
			t.Error(err)
		}
	})
	k.RunUntil(2 * time.Hour)
	if len(w.writes) != 2 || w.writes[1].x.Off != 1024 {
		t.Fatalf("writes after recovery %+v, want records 0 and 1024 exactly once each", w.writes)
	}
	s := tier.Stats()
	checkConserved(t, s)
	if s.Drained != 1<<10 || s.Replayed != 1<<10 {
		t.Fatalf("stats %+v, want one drained + one replayed", s)
	}
}

func TestCrashDiscardsUnsealed(t *testing.T) {
	k := sim.NewKernel(1)
	tier, w := testTier(k, testCfg)
	a := check.New(1, "burst-test")
	tier.RegisterAudit(a)
	k.Spawn("writer", func(p *sim.Proc) {
		l := tier.Log(0)
		l.Append(p, 0, 1, "f", rec(0))
		l.Seal(p, 0, 1)
		l.Append(p, 0, 2, "f", rec(1024)) // epoch 2 never sealed
		tier.CrashNode(0, p.Now())
	})
	k.RunUntil(time.Hour)
	k.Spawn("recovery", func(p *sim.Proc) {
		if err := tier.Recover(p); err != nil {
			t.Error(err)
		}
	})
	k.RunUntil(2 * time.Hour)
	if len(w.writes) != 1 || w.writes[0].x.Off != 0 {
		t.Fatalf("writes %+v, want only the sealed epoch-1 record", w.writes)
	}
	s := tier.Stats()
	checkConserved(t, s)
	// The epoch-2 append yields during absorb, so the drainer picks up the
	// sealed epoch-1 record before the crash lands: it completes as an
	// in-flight drain. Only the unsealed epoch-2 record is in the log at
	// recovery, and it is discarded.
	if s.Discarded != 1<<10 || s.Drained != 1<<10 || s.Replayed != 0 || s.Resident != 0 {
		t.Fatalf("stats %+v, want unsealed record discarded, sealed one drained in-flight", s)
	}
	a.RunFinalProbes()
	if err := a.Err(); err != nil {
		t.Fatalf("conservation oracle: %v", err)
	}
}

func TestDrainerResumesAfterRecovery(t *testing.T) {
	k := sim.NewKernel(1)
	tier, w := testTier(k, testCfg)
	k.Spawn("writer", func(p *sim.Proc) {
		l := tier.Log(0)
		l.Append(p, 0, 1, "f", rec(0))
		l.Seal(p, 0, 1)
		tier.CrashNode(0, p.Now())
		if err := tier.Recover(p); err != nil {
			t.Error(err)
		}
		// Post-recovery appends drain normally again.
		l.Append(p, 0, 2, "f", rec(1024))
		l.Seal(p, 0, 2)
		if err := tier.WaitDrained(p); err != nil {
			t.Error(err)
		}
	})
	k.RunUntil(time.Hour)
	if len(w.writes) != 2 {
		t.Fatalf("writes %+v, want replayed epoch 1 + drained epoch 2", w.writes)
	}
	s := tier.Stats()
	checkConserved(t, s)
	if s.Replayed != 1<<10 || s.Drained != 1<<10 {
		t.Fatalf("stats %+v, want one replayed + one drained", s)
	}
}

// TestDrainErrorCarriesEpoch is the RetryError-surfacing regression test:
// a drain that exhausts its PFS retries must report the originating epoch
// in the error chain without hiding the pfs sentinel.
func TestDrainErrorCarriesEpoch(t *testing.T) {
	k := sim.NewKernel(1)
	w := &fakeWriter{err: &pfs.RetryError{Op: "write", File: "f", Server: 2}}
	tier := NewTier(k, testCfg, func(int) Writer { return w })
	var got error
	k.Spawn("writer", func(p *sim.Proc) {
		l := tier.Log(0)
		l.Append(p, 0, 7, "f", rec(0))
		l.Seal(p, 0, 7)
		got = tier.WaitDrained(p)
	})
	k.RunUntil(time.Hour)
	if got == nil {
		t.Fatal("drain error not surfaced")
	}
	var ee *EpochError
	if !errors.As(got, &ee) || ee.Epoch != 7 {
		t.Fatalf("error %v does not carry epoch 7", got)
	}
	if !errors.Is(got, pfs.ErrRetriesExhausted) {
		t.Fatalf("error %v hides pfs.ErrRetriesExhausted", got)
	}
	var re *pfs.RetryError
	if !errors.As(got, &re) || re.Server != 2 {
		t.Fatalf("error %v hides the originating *pfs.RetryError", got)
	}
	if tier.Err() == nil {
		t.Fatal("Tier.Err() lost the drain error")
	}
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range []Config{
		{CapacityBytes: 0, AbsorbBps: 1, DrainBps: 1},
		{CapacityBytes: 1, AbsorbBps: 0, DrainBps: 1},
		{CapacityBytes: 1, AbsorbBps: 1, DrainBps: 0}, // drain throttle 0 rejected
		{CapacityBytes: 1, AbsorbBps: 1, DrainBps: -5},
		{CapacityBytes: 1, AbsorbBps: 1, DrainBps: 1, SealLatency: -time.Second},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", cfg)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewTier accepted DrainBps=0")
			}
		}()
		NewTier(sim.NewKernel(1), Config{CapacityBytes: 1, AbsorbBps: 1}, nil)
	}()
}

func TestParseSpec(t *testing.T) {
	c, err := ParseSpec("cap=2M,absorb=100M,drain=50M,seal=1ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{CapacityBytes: 2 << 20, AbsorbBps: 100 << 20, DrainBps: 50 << 20, SealLatency: time.Millisecond}
	if c != want {
		t.Fatalf("ParseSpec = %+v, want %+v", c, want)
	}
	if c, err = ParseSpec(""); err != nil || c != DefaultConfig() {
		t.Fatalf("empty spec = %+v, %v, want defaults", c, err)
	}
	if c, err = ParseSpec("cap=1024"); err != nil || c.CapacityBytes != 1024 {
		t.Fatalf("plain bytes = %+v, %v", c, err)
	}
	for _, spec := range []string{
		"drain=0",   // zero drain throttle
		"cap",       // no value
		"cap=",      // empty size
		"cap=M",     // bare suffix
		"cap=12x",   // bad digit
		"seal=fast", // bad duration
		"seal=-1ms", // negative seal latency
		"turbo=1",   // unknown key
		"cap=-2M",   // negative size

		"cap=17179869185G",         // 2^34+1 GiB overflows int64
		"cap=99999999999999999999", // more digits than int64 holds
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted an invalid spec", spec)
		}
	}
}

func TestParseBytes(t *testing.T) {
	for in, want := range map[string]int64{
		"0":                   0,
		"4096":                4096,
		"3k":                  3 << 10,
		"3K":                  3 << 10,
		"2m":                  2 << 20,
		"2M":                  2 << 20,
		"1g":                  1 << 30,
		"8589934591G":         8589934591 << 30, // largest GiB count that fits
		"9223372036854775807": 1<<63 - 1,
	} {
		if got, err := ParseBytes(in); err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v, want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"", "K", "-1", "1.5M", "1T", "8589934592G", "9223372036854775808"} {
		if got, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want an error", in, got)
		}
	}
}

func TestEpochs(t *testing.T) {
	e := NewEpochs(3)
	if e.Committed() != 0 {
		t.Fatalf("fresh tracker committed %d, want 0", e.Committed())
	}
	e.Seal(0, 1)
	e.Seal(1, 1)
	if e.Committed() != 0 {
		t.Fatalf("committed %d with rank 2 unsealed, want 0", e.Committed())
	}
	e.Seal(2, 1)
	if e.Committed() != 1 {
		t.Fatalf("committed %d, want 1", e.Committed())
	}
	e.Seal(0, 2)
	if e.Committed() != 1 {
		t.Fatalf("committed %d after one rank advanced, want 1", e.Committed())
	}
	if e.Ranks() != 3 {
		t.Fatalf("ranks = %d", e.Ranks())
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-order seal accepted")
		}
	}()
	e.Seal(1, 3) // skips epoch 2
}

// nullWriter completes every write instantly and allocation-free.
type nullWriter struct{}

func (nullWriter) Write(p *sim.Proc, name string, extents []ext.Extent, origin int, rc obs.Ctx) error {
	return nil
}

// BenchmarkBurstAbsorb measures the append hot path (no draining): the
// ring-buffer push and device pacing must not allocate in steady state.
func BenchmarkBurstAbsorb(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	tier := NewTier(k, Config{
		CapacityBytes: 1 << 50, AbsorbBps: 1 << 30, DrainBps: 1 << 30,
	}, func(int) Writer { return nullWriter{} })
	l := tier.Log(0)
	exts := []ext.Extent{{Off: 0, Len: 4096}}
	k.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			exts[0].Off = int64(i) * 4096
			l.Append(p, 0, 1, "bench.dat", exts)
		}
	})
	b.ResetTimer()
	k.RunUntil(1 << 62)
	b.StopTimer()
	if got := tier.Stats().Absorbed; got != int64(b.N)*4096 {
		b.Fatalf("absorbed %d bytes, want %d", got, int64(b.N)*4096)
	}
}

// BenchmarkBurstDrain measures the steady-state absorb→seal→drain cycle
// against an instant PFS writer: the drainer's wake, pacing, and pop must
// not allocate once the ring is warm.
func BenchmarkBurstDrain(b *testing.B) {
	b.ReportAllocs()
	k := sim.NewKernel(1)
	tier := NewTier(k, Config{
		CapacityBytes: 1 << 30, AbsorbBps: 1 << 30, DrainBps: 1 << 30,
	}, func(int) Writer { return nullWriter{} })
	l := tier.Log(0)
	exts := []ext.Extent{{Off: 0, Len: 4096}}
	k.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			exts[0].Off = int64(i) * 4096
			l.Append(p, 0, i+1, "bench.dat", exts)
			l.Seal(p, 0, i+1)
		}
	})
	b.ResetTimer()
	k.RunUntil(1 << 62)
	b.StopTimer()
	s := tier.Stats()
	if s.Drained != int64(b.N)*4096 || s.Resident != 0 {
		b.Fatalf("drained %d of %d bytes (resident %d)", s.Drained, int64(b.N)*4096, s.Resident)
	}
}
