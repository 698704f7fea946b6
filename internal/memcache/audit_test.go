package memcache

import (
	"os"
	"strings"
	"testing"

	"dualpar/internal/check"
	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// TestCheckUsedCatchesCorruptLedger corrupts the cache's used-bytes counter
// directly (white-box) and verifies the registered audit probe fires with a
// keyed violation and a reproducer artifact — the end-to-end path a real
// accounting bug would take.
func TestCheckUsedCatchesCorruptLedger(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k)
	a := check.New(1, "memcache white-box")
	a.SetArtifactDir(t.TempDir())
	a.SetClock(k.Now)
	c.SetAudit(a)
	a.RegisterProbe("memcache.used.prog0", c.CheckUsed)

	k.Spawn("p", func(p *sim.Proc) {
		c.PutClean(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 0, Len: 64 << 10}})
	})
	k.Run()

	a.RunProbes()
	if err := a.Err(); err != nil {
		t.Fatalf("probe fired on a healthy cache: %v", err)
	}

	c.used += 17 // the deliberate accounting bug
	a.RunProbes()
	err := a.Err()
	if err == nil {
		t.Fatalf("corrupted used ledger not caught")
	}
	if !strings.Contains(err.Error(), "memcache.used.prog0") {
		t.Fatalf("violation not keyed to the probe: %v", err)
	}
	art := a.Violations()[0].Artifact
	if art == "" {
		t.Fatalf("no reproducer artifact written")
	}
	buf, rerr := os.ReadFile(art)
	if rerr != nil {
		t.Fatalf("reading artifact: %v", rerr)
	}
	if !strings.Contains(string(buf), "memcache.used.prog0") {
		t.Fatalf("artifact does not record the violation: %s", buf)
	}
}

// TestCheckUsedCatchesCounterDrift: each counter that stands in for a
// walk over the chunks (resident chunks, dirty chunks, dirty bytes per
// file and in total, and each chunk's valid and dirty bytes) is checked
// against the index.
func TestCheckUsedCatchesCounterDrift(t *testing.T) {
	for _, drift := range []struct {
		name string
		bump func(c *Cache)
	}{
		{"resident", func(c *Cache) { c.resident++ }},
		{"dirty chunks", func(c *Cache) { c.dirty-- }},
		{"dirty bytes", func(c *Cache) { c.dirtyB++ }},
		{"file dirty bytes", func(c *Cache) { c.files["f"].dirtyBytes++ }},
		{"chunk valid bytes", func(c *Cache) { c.files["f"].at(1).validB-- }},
		{"chunk dirty bytes", func(c *Cache) { c.files["f"].at(1).dirtyB++ }},
	} {
		k := sim.NewKernel(1)
		c := newCache(k)
		k.Spawn("p", func(p *sim.Proc) {
			c.PutDirty(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 0, Len: 4 << 10}, {Off: 64 << 10, Len: 4 << 10}})
			if err := c.CheckUsed(); err != nil {
				t.Fatalf("healthy cache: %v", err)
			}
			drift.bump(c)
			if c.CheckUsed() == nil {
				t.Errorf("%s drift not caught", drift.name)
			}
		})
		k.Run()
	}
}

// TestGetConservationOracle verifies the inline Get check accepts the
// hit/miss split on mixed batches (the oracle holding, not firing).
func TestGetConservationOracle(t *testing.T) {
	k := sim.NewKernel(1)
	c := newCache(k)
	a := check.New(1, "memcache get")
	a.SetArtifactDir(t.TempDir())
	c.SetAudit(a)
	k.Spawn("p", func(p *sim.Proc) {
		c.PutClean(p, 100, obs.Ctx{}, "f", []ext.Extent{{Off: 0, Len: 64 << 10}})
		c.Get(p, 100, obs.Ctx{}, "f", nil, ext.Extent{Off: 0, Len: 128 << 10})    // half hit
		c.Get(p, 100, obs.Ctx{}, "f", nil, ext.Extent{Off: 256 << 10, Len: 4096}) // full miss
		c.Get(p, 100, obs.Ctx{}, "f", nil, ext.Extent{Off: 0, Len: 64 << 10})     // full hit
	})
	k.Run()
	if err := a.Err(); err != nil {
		t.Fatalf("conservation oracle fired on correct splits: %v", err)
	}
}
