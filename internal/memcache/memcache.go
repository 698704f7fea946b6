// Package memcache models the distributed in-memory key-value cache DualPar
// builds its global I/O cache on (paper §IV-D): files are partitioned into
// fixed-size chunks (the PVFS2 stripe unit, 64 KB, so one chunk maps to one
// data server); each chunk is indexed by (file name, chunk address) and is
// homed on a compute node chosen round-robin; a chunk unreferenced for a
// fixed idle period (evictAfter, 30 s) is evicted.
//
// Like the rest of the stack, no data bytes are stored — the cache tracks
// which byte ranges of each chunk are valid and/or dirty, and charges
// network time for remote gets and puts.
package memcache

import (
	"fmt"
	"slices"
	"time"

	"dualpar/internal/check"
	"dualpar/internal/ext"
	"dualpar/internal/netsim"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

const (
	// evictAfter is how long an unreferenced chunk survives.
	evictAfter = 30 * time.Second
	// opCPU is the per-operation processing cost at the home node.
	opCPU = 20 * time.Microsecond
)

type chunkKey struct {
	file string
	idx  int64
}

type chunk struct {
	valid   []ext.Extent // chunk-relative byte ranges present
	dirty   []ext.Extent // subset of valid awaiting writeback
	validB  int64        // ext.Total(valid), kept as puts insert
	dirtyB  int64        // ext.Total(dirty), kept as puts insert
	lastRef time.Duration
	next    *chunk // free-list link while released
}

// maxChunkSlab bounds how many chunk records one allocation carves.
const maxChunkSlab = 256

// cacheFile is one file's chunk index: chunk idx is chunks[idx], nil when
// not resident. The slice grows by doubling to cover the highest chunk
// touched, so a lookup hashes the file name once per operation, not once
// per chunk.
type cacheFile struct {
	name       string
	chunks     []*chunk
	dirtyBytes int64 // dirty bytes across the file's chunks
}

// at returns chunk idx, or nil when it is not resident.
func (f *cacheFile) at(idx int64) *chunk {
	if idx < int64(len(f.chunks)) {
		return f.chunks[idx]
	}
	return nil
}

// slot returns chunk idx's index slot, growing the index to cover it.
func (f *cacheFile) slot(idx int64) **chunk {
	if n := int64(len(f.chunks)); idx >= n {
		n = max(2*n, 8)
		for n <= idx {
			n *= 2
		}
		f.chunks = append(f.chunks, make([]*chunk, n-int64(len(f.chunks)))...)
	}
	return &f.chunks[idx]
}

// Cache is the global cache spanning a program's compute nodes.
type Cache struct {
	k        *sim.Kernel
	net      *netsim.Network
	chunk    int64 // partition unit in bytes
	nodes    []int
	files    map[string]*cacheFile
	free     *chunk // released or unused chunk records, reused with their capacity
	used     int64
	resident int    // chunks across files
	dirty    int    // resident chunks holding dirty bytes
	dirtyB   int64  // dirty bytes across files
	quota    *Quota // nil = untenanted (no partition accounting)
	sweeping bool   // an idle-eviction sweep is scheduled
	sweep    func() // the sweep callback, bound once in New

	statGets, statHits int64
	statEvictions      int64

	obs   *obs.Collector
	audit check.Ledger // nil = audit off
}

// New creates a cache of chunkBytes-sized chunks homed round-robin on
// nodes. DualPar sizes the chunk to the PVFS2 stripe unit, so a chunk
// touches exactly one data server. An idle-eviction sweep runs while the
// cache is non-empty.
func New(k *sim.Kernel, net *netsim.Network, chunkBytes int64, nodes []int) *Cache {
	if chunkBytes <= 0 {
		panic(fmt.Sprintf("memcache: chunk %d", chunkBytes))
	}
	if len(nodes) == 0 {
		panic("memcache: no nodes")
	}
	c := &Cache{
		k:     k,
		net:   net,
		chunk: chunkBytes,
		nodes: append([]int(nil), nodes...),
		files: make(map[string]*cacheFile),
	}
	c.sweep = func() {
		c.sweeping = false
		c.evictIdle()
		c.armSweeper()
	}
	return c
}

// newChunk installs a chunk record in slot, taking it off the free list.
// An empty free list is refilled with as many records as are resident (at
// least one, at most maxChunkSlab) in one allocation, so a cache pays per
// chunk it holds and a large one allocates in few blocks. A second block
// beside the slab holds each record's first valid extent, so the first
// insert into a fresh chunk allocates nothing either.
func (c *Cache) newChunk(f *cacheFile, slot **chunk) *chunk {
	if c.free == nil {
		slab := make([]chunk, min(max(c.resident, 1), maxChunkSlab))
		valid := make([]ext.Extent, len(slab))
		for i := range slab {
			slab[i].valid = valid[i : i : i+1]
		}
		for i := range len(slab) - 1 {
			slab[i].next = &slab[i+1]
		}
		c.free = &slab[0]
	}
	ch := c.free
	c.free, ch.next = ch.next, nil
	*slot = ch
	c.resident++
	return ch
}

// release removes chunk idx of f, dirty or not, and recycles its record.
func (c *Cache) release(f *cacheFile, idx int64) {
	ch := f.chunks[idx]
	c.adjustUsed(-ch.validB)
	if ch.dirtyB > 0 {
		f.dirtyBytes -= ch.dirtyB
		c.dirtyB -= ch.dirtyB
		c.dirty--
	}
	f.chunks[idx] = nil
	c.resident--
	*ch = chunk{valid: ch.valid[:0], dirty: ch.dirty[:0], next: c.free}
	c.free = ch
}

// armSweeper schedules the next idle-eviction sweep if one is not pending.
// The sweep chain stops when the cache empties, so a simulation with no
// other pending work terminates.
func (c *Cache) armSweeper() {
	if c.sweeping {
		return
	}
	if c.resident == c.dirty { // no clean chunk to evict
		return
	}
	c.sweeping = true
	c.k.After(evictAfter/2, c.sweep)
}

// SetObs attaches the observability collector: every Get then emits a
// cache.hit or cache.miss instant on the "cache" track.
func (c *Cache) SetObs(o *obs.Collector) { c.obs = o }

// SetAudit attaches the audit ledger: every Get then asserts its requested
// bytes split exactly into hit bytes plus missing bytes.
func (c *Cache) SetAudit(l check.Ledger) { c.audit = l }

// CheckUsed verifies the cache's ledgers against the chunk index: each
// chunk's valid and dirty byte counts must equal its lists' totals, used
// must equal the sum of valid bytes over all chunks, the resident-chunk,
// dirty-chunk and dirty-byte counters (dirty bytes per file and in total)
// must match the chunks, and every dirty range must lie inside its chunk's
// valid set. It is registered as a per-cycle audit probe; the walk is pure
// bookkeeping (no simulation events).
func (c *Cache) CheckUsed() error {
	var total, dirtyB int64
	var resident, dirty int
	for _, f := range c.files {
		var fileDirty int64
		for idx, ch := range f.chunks {
			if ch == nil {
				continue
			}
			resident++
			if v, d := ext.Total(ch.valid), ext.Total(ch.dirty); v != ch.validB || d != ch.dirtyB {
				return fmt.Errorf("chunk %s/%d: counts %d valid, %d dirty bytes, lists hold %d, %d",
					f.name, idx, ch.validB, ch.dirtyB, v, d)
			}
			total += ch.validB
			fileDirty += ch.dirtyB
			if len(ch.dirty) > 0 {
				dirty++
			}
			for _, d := range ch.dirty {
				covered := false
				for _, v := range ch.valid {
					if cl, ok := v.Clip(d.Off, d.End()); ok && cl == d {
						covered = true
						break
					}
				}
				if !covered {
					return fmt.Errorf("chunk %s/%d: dirty %+v not covered by valid %v",
						f.name, idx, d, ch.valid)
				}
			}
		}
		if fileDirty != f.dirtyBytes {
			return fmt.Errorf("file %s: dirty ledger %d != %d dirty bytes in its chunks",
				f.name, f.dirtyBytes, fileDirty)
		}
		dirtyB += fileDirty
	}
	if total != c.used {
		return fmt.Errorf("used ledger %d != %d valid bytes across %d chunks",
			c.used, total, resident)
	}
	if resident != c.resident || dirty != c.dirty || dirtyB != c.dirtyB {
		return fmt.Errorf("ledger %d chunks (%d dirty, %d dirty bytes), index holds %d (%d, %d)",
			c.resident, c.dirty, c.dirtyB, resident, dirty, dirtyB)
	}
	return nil
}

// Home returns the node that stores the given chunk.
func (c *Cache) Home(idx int64) int {
	return c.nodes[int(idx)%len(c.nodes)]
}

// UsedBytes reports the total valid bytes cached.
func (c *Cache) UsedBytes() int64 { return c.used }

// Gets and Hits report lookup counters (a hit is a fully satisfied Get).
func (c *Cache) Gets() int64 { return c.statGets }
func (c *Cache) Hits() int64 { return c.statHits }

// Evictions reports evicted chunk count.
func (c *Cache) Evictions() int64 { return c.statEvictions }

// Get checks whether extents of file are fully cached. Lookups are batched
// the way a memcached multi-get is: one operation and (for remote homes) one
// network transfer per home node involved, carrying all that home's hit
// bytes. It returns the missing file-space extents in ext.Merge's canonical
// form, so callers pass them on without re-merging. The list is built in
// buf's storage, overwriting it: a caller keeps one buffer and passes the
// last result back in, and must copy a result it keeps past its next Get.
// Get keeps neither buf nor extents. A fully-satisfied Get counts as a hit.
// rc is the originating request's trace identity: a traced context
// additionally records a StageCache span on the "cache" track covering the
// lookup (home-node CPU plus wire time for remote hits).
func (c *Cache) Get(p *sim.Proc, fromNode int, rc obs.Ctx, file string, buf []ext.Extent, extents ...ext.Extent) (miss []ext.Extent) {
	start := p.Now()
	c.statGets++
	now := p.Now()
	miss = buf[:0]
	var auditMiss int64
	var homes [8]homeAcc
	perHome := homeBytes(homes[:0]) // hit bytes by home node
	f := c.files[file]
	cb := c.chunk
	ext.VisitSplit(extents, cb, func(piece ext.Extent) {
		idx, rel := piece.Off/cb, ext.Extent{Off: piece.Off % cb, Len: piece.Len}
		var ch *chunk
		if f != nil {
			ch = f.at(idx)
		}
		var hitB int64
		if ch != nil {
			ch.lastRef = now
			// Covered portion of rel.
			for _, v := range ch.valid {
				if cl, ok := v.Clip(rel.Off, rel.End()); ok {
					hitB += cl.Len
				}
			}
		}
		if ch == nil || hitB < rel.Len {
			// Report the whole piece as missing (partial chunk hits are
			// refetched with the miss, as DualPar's CRM refills chunks
			// wholesale). Pieces arrive in offset order unless extents
			// is unsorted, so Insert mostly joins or appends at the end.
			miss = ext.Insert(miss, piece)
			auditMiss += rel.Len
			return
		}
		perHome = perHome.add(c.Home(idx), hitB)
	})
	if c.audit != nil {
		var hit int64
		for _, h := range perHome {
			hit += h.bytes
		}
		c.audit.Checkf(hit+auditMiss == ext.Total(extents), "memcache.get.conserve",
			"Get(%s): %d hit + %d miss != %d requested bytes",
			file, hit, auditMiss, ext.Total(extents))
	}
	c.chargeTransfers(p, fromNode, perHome, false)
	if len(miss) == 0 {
		c.statHits++
		if c.obs.Enabled() {
			c.obs.Instant("cache.hit", "cache", p.Now(),
				obs.Str("file", file), obs.I64("bytes", ext.Total(extents)))
		}
	} else if c.obs.Enabled() {
		c.obs.Instant("cache.miss", "cache", p.Now(),
			obs.Str("file", file), obs.I64("missing", ext.Total(miss)))
	}
	if rc.Traced() {
		result := "hit"
		if len(miss) > 0 {
			result = "miss"
		}
		c.obs.Span(rc.ID, obs.StageCache, "cache", start, p.Now(),
			obs.Str("op", "get"), obs.Str("result", result),
			obs.I64("bytes", ext.Total(extents)), obs.I64("missing", ext.Total(miss)))
	}
	return miss
}

// homeBytes accumulates per-home-node byte counts for one batched
// operation. The fan-out of a single Get/put is a handful of nodes, so a
// slice kept sorted by insertion beats a map plus a key sort on the hot
// path — and node order stays deterministic for free. Callers back it with
// a local array, which stays on the stack. It must be local to one call:
// Procs yield inside chargeTransfers, so a shared scratch buffer would be
// clobbered by a concurrent simulated operation.
type homeBytes []homeAcc

type homeAcc struct {
	node  int
	bytes int64
}

// add accumulates b bytes against node, keeping the slice sorted by node.
func (hb homeBytes) add(node int, b int64) homeBytes {
	i := len(hb)
	for i > 0 && hb[i-1].node >= node {
		if hb[i-1].node == node {
			hb[i-1].bytes += b
			return hb
		}
		i--
	}
	hb = append(hb, homeAcc{})
	copy(hb[i+1:], hb[i:])
	hb[i] = homeAcc{node: node, bytes: b}
	return hb
}

// chargeTransfers pays one memcached operation per involved home node and
// one wire transfer per remote home, in node order (deterministic).
func (c *Cache) chargeTransfers(p *sim.Proc, fromNode int, perHome homeBytes, toHome bool) {
	for _, h := range perHome {
		p.Sleep(opCPU)
		if h.node == fromNode {
			continue
		}
		if toHome {
			c.net.Send(p, fromNode, h.node, h.bytes+64)
		} else {
			c.net.Send(p, h.node, fromNode, h.bytes+64)
		}
	}
}

// PutClean marks file extents valid (prefetched data arriving at its home
// nodes). The caller is the CRM proc running on homeNode; extents homed
// elsewhere cost a network transfer. A traced rc records a StageCache span
// for the insertion.
func (c *Cache) PutClean(p *sim.Proc, fromNode int, rc obs.Ctx, file string, extents []ext.Extent) {
	c.put(p, fromNode, rc, file, extents, false)
}

// PutDirty buffers written extents in the cache (data-driven writes) until
// writeback drains them. A traced rc records a StageCache span for the
// insertion.
func (c *Cache) PutDirty(p *sim.Proc, fromNode int, rc obs.Ctx, file string, extents []ext.Extent) {
	c.put(p, fromNode, rc, file, extents, true)
}

func (c *Cache) put(p *sim.Proc, fromNode int, rc obs.Ctx, file string, extents []ext.Extent, dirty bool) {
	start := p.Now()
	now := p.Now()
	var homes [8]homeAcc
	perHome := homeBytes(homes[:0]) // bytes shipped to each home node
	f := c.files[file]
	if f == nil {
		f = &cacheFile{name: file}
		c.files[file] = f
	}
	cb := c.chunk
	ext.VisitSplit(extents, cb, func(piece ext.Extent) {
		idx, rel := piece.Off/cb, ext.Extent{Off: piece.Off % cb, Len: piece.Len}
		slot := f.slot(idx)
		ch := *slot
		if ch == nil {
			ch = c.newChunk(f, slot)
		}
		var v int64
		ch.valid, v = ext.InsertCount(ch.valid, rel)
		ch.validB += v
		c.adjustUsed(v)
		if dirty {
			if ch.dirtyB == 0 {
				c.dirty++
			}
			var d int64
			ch.dirty, d = ext.InsertCount(ch.dirty, rel)
			ch.dirtyB += d
			f.dirtyBytes += d
			c.dirtyB += d
		}
		ch.lastRef = now
		perHome = perHome.add(c.Home(idx), rel.Len)
	})
	c.chargeTransfers(p, fromNode, perHome, true)
	if rc.Traced() {
		op := "put-clean"
		if dirty {
			op = "put-dirty"
		}
		c.obs.Span(rc.ID, obs.StageCache, "cache", start, p.Now(),
			obs.Str("op", op), obs.I64("bytes", ext.Total(extents)))
	}
	c.quota.enforce()
	c.armSweeper()
}

// DirtyExtents returns the dirty file-space extents of a file in
// ext.Merge's canonical form, in a list the caller owns, so callers sieve or
// split it without re-merging.
func (c *Cache) DirtyExtents(file string) []ext.Extent {
	f := c.files[file]
	if f == nil || f.dirtyBytes == 0 {
		return nil
	}
	// Chunks in index order give their extents in offset order, so each
	// Insert appends or joins the last extent.
	var out []ext.Extent
	for idx, ch := range f.chunks {
		if ch == nil {
			continue
		}
		base := int64(idx) * c.chunk
		for _, d := range ch.dirty {
			out = ext.Insert(out, ext.Extent{Off: base + d.Off, Len: d.Len})
		}
	}
	return out
}

// DirtyFiles lists files with dirty data, sorted for determinism.
func (c *Cache) DirtyFiles() []string {
	var out []string
	for name, f := range c.files {
		if f.dirtyBytes > 0 {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// MarkClean clears dirty state after writeback (the data stays valid).
func (c *Cache) MarkClean(file string) {
	if f := c.files[file]; f != nil && f.dirtyBytes > 0 {
		for _, ch := range f.chunks {
			if ch != nil && len(ch.dirty) > 0 {
				ch.dirty, ch.dirtyB = ch.dirty[:0], 0
				c.dirty--
			}
		}
		c.dirtyB -= f.dirtyBytes
		f.dirtyBytes = 0
	}
	// The chunks just became evictable. If every chunk was dirty when the
	// last put ran, no sweep is pending — without re-arming here the cleaned
	// chunks would sit in the cache forever.
	c.armSweeper()
}

// DirtyBytes reports total dirty bytes across files.
func (c *Cache) DirtyBytes() int64 { return c.dirtyB }

// evictIdle removes clean chunks unreferenced for evictAfter.
func (c *Cache) evictIdle() {
	cutoff := c.k.Now() - evictAfter
	for _, f := range c.files {
		for idx, ch := range f.chunks {
			if ch != nil && len(ch.dirty) == 0 && ch.lastRef < cutoff {
				c.release(f, int64(idx))
				c.statEvictions++
			}
		}
	}
}

// lessKey gives a deterministic tiebreak for equal reference times.
func lessKey(a, b chunkKey) bool {
	if a.file != b.file {
		return a.file < b.file
	}
	return a.idx < b.idx
}
