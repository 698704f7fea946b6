package pfs

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// TestSplitConservesBytes: striping must neither lose nor duplicate bytes,
// for arbitrary extent lists.
func TestSplitConservesBytes(t *testing.T) {
	_, fsys := testFS(3)
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := 1 + int(n)%16
		var extents []ext.Extent
		for i := 0; i < count; i++ {
			extents = append(extents, ext.Extent{
				Off: rng.Int63n(16 << 20),
				Len: 1 + rng.Int63n(256<<10),
			})
		}
		per := fsys.split(extents)
		var total int64
		for _, lst := range per {
			total += ext.Total(lst)
		}
		return total == ext.Total(extents)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSplitMatchesLocalOffset: every byte of a split extent must land on
// the server LocalOffset predicts.
func TestSplitMatchesLocalOffset(t *testing.T) {
	_, fsys := testFS(4)
	unit := StripeUnit
	f := func(off uint32) bool {
		o := int64(off) % (32 << 20)
		per := fsys.split([]ext.Extent{{Off: o, Len: 1}})
		srv, local := fsys.LocalOffset(o)
		for i, lst := range per {
			if len(lst) == 0 {
				continue
			}
			if i != srv || lst[0].Off != local {
				return false
			}
		}
		_ = unit
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestColdReadServesExactBytes: with a cold cache, a random read reaches
// the stores for exactly the requested volume (page rounding happens below
// the store API, so the store-level counters match the request exactly).
func TestColdReadServesExactBytes(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		k, fsys := testFS(3)
		cl := fsys.Client(100)
		rng := rand.New(rand.NewSource(seed))
		count := 1 + int(n)%8
		var extents []ext.Extent
		cursor := int64(0)
		for i := 0; i < count; i++ {
			cursor += rng.Int63n(1 << 20)
			l := 1 + rng.Int63n(128<<10)
			extents = append(extents, ext.Extent{Off: cursor, Len: l})
			cursor += l // disjoint extents: no double-count ambiguity
		}
		want := ext.Total(extents)
		ok := false
		k.Spawn("client", func(p *sim.Proc) {
			cl.Create(p, "f", cursor+1)
			cl.Read(p, "f", extents, 1, obs.Ctx{})
			var got int64
			for _, srv := range fsys.Servers() {
				got += srv.Store.BytesRead()
			}
			ok = got == want
		})
		k.RunUntil(time.Hour)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteServesExactBytes: same conservation for writes.
func TestWriteServesExactBytes(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		k, fsys := testFS(2)
		cl := fsys.Client(100)
		rng := rand.New(rand.NewSource(seed))
		count := 1 + int(n)%8
		var extents []ext.Extent
		cursor := int64(0)
		for i := 0; i < count; i++ {
			cursor += rng.Int63n(1 << 20)
			l := 1 + rng.Int63n(64<<10)
			extents = append(extents, ext.Extent{Off: cursor, Len: l})
			cursor += l
		}
		want := ext.Total(extents)
		ok := false
		k.Spawn("client", func(p *sim.Proc) {
			cl.Write(p, "f", extents, 1, obs.Ctx{})
			var got int64
			for _, srv := range fsys.Servers() {
				got += srv.Store.BytesWritten()
			}
			ok = got == want
		})
		k.RunUntil(time.Hour)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
