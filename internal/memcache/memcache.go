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
	"sort"
	"time"

	"dualpar/internal/check"
	"dualpar/internal/ext"
	"dualpar/internal/netsim"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// Config tunes the cache.
type Config struct {
	// ChunkBytes is the partition unit; DualPar sets it to the PVFS2
	// stripe unit so a chunk touches exactly one data server.
	ChunkBytes int64
}

const (
	// evictAfter is how long an unreferenced chunk survives.
	evictAfter = 30 * time.Second
	// opCPU is the per-operation processing cost at the home node.
	opCPU = 20 * time.Microsecond
)

// DefaultConfig matches the paper's prototype (64 KB chunks).
func DefaultConfig() Config {
	return Config{ChunkBytes: 64 << 10}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ChunkBytes <= 0 {
		return fmt.Errorf("memcache: ChunkBytes %d", c.ChunkBytes)
	}
	return nil
}

type chunkKey struct {
	file string
	idx  int64
}

type chunk struct {
	key     chunkKey
	valid   []ext.Extent // chunk-relative byte ranges present
	dirty   []ext.Extent // subset of valid awaiting writeback
	lastRef time.Duration
}

// Cache is the global cache spanning a program's compute nodes.
type Cache struct {
	k        *sim.Kernel
	net      *netsim.Network
	cfg      Config
	nodes    []int
	chunks   map[chunkKey]*chunk
	used     int64
	quota    *Quota // nil = untenanted (no partition accounting)
	sweeping bool   // an idle-eviction sweep is scheduled

	statGets, statHits int64
	statEvictions      int64

	obs   *obs.Collector
	audit check.Ledger // nil = audit off
}

// New creates a cache whose chunks are homed round-robin on nodes. An
// idle-eviction sweep runs while the cache is non-empty.
func New(k *sim.Kernel, net *netsim.Network, cfg Config, nodes []int) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(nodes) == 0 {
		panic("memcache: no nodes")
	}
	return &Cache{
		k:      k,
		net:    net,
		cfg:    cfg,
		nodes:  append([]int(nil), nodes...),
		chunks: make(map[chunkKey]*chunk),
	}
}

// armSweeper schedules the next idle-eviction sweep if one is not pending.
// The sweep chain stops when the cache empties, so a simulation with no
// other pending work terminates.
func (c *Cache) armSweeper() {
	if c.sweeping {
		return
	}
	evictable := false
	for _, ch := range c.chunks {
		if len(ch.dirty) == 0 {
			evictable = true
			break
		}
	}
	if !evictable {
		return
	}
	c.sweeping = true
	c.k.After(evictAfter/2, func() {
		c.sweeping = false
		c.evictIdle()
		c.armSweeper()
	})
}

// SetObs attaches the observability collector: every Get then emits a
// cache.hit or cache.miss instant on the "cache" track.
func (c *Cache) SetObs(o *obs.Collector) { c.obs = o }

// SetAudit attaches the audit ledger: every Get then asserts its requested
// bytes split exactly into hit bytes plus missing bytes.
func (c *Cache) SetAudit(l check.Ledger) { c.audit = l }

// CheckUsed verifies the cache's used-bytes ledger against the chunk table:
// used must equal the sum of valid bytes over all chunks, and every dirty
// range must lie inside its chunk's valid set. It is registered as a
// per-cycle audit probe; the walk is pure bookkeeping (no simulation events).
func (c *Cache) CheckUsed() error {
	var total int64
	for key, ch := range c.chunks {
		total += ext.Total(ch.valid)
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
					key.file, key.idx, d, ch.valid)
			}
		}
	}
	if total != c.used {
		return fmt.Errorf("used ledger %d != %d valid bytes across %d chunks",
			c.used, total, len(c.chunks))
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

// Get checks whether [e] of file is fully cached. Lookups are batched the
// way a memcached multi-get is: one operation and (for remote homes) one
// network transfer per home node involved, carrying all that home's hit
// bytes. It returns the missing file-space extents in ext.Merge's
// canonical form, in a list the caller owns, so callers pass it on without
// re-merging; a fully-satisfied Get counts as a hit. rc is the originating
// request's trace identity: a traced context additionally records a
// StageCache span on the "cache" track covering the lookup (home-node CPU
// plus wire time for remote hits).
func (c *Cache) Get(p *sim.Proc, fromNode int, rc obs.Ctx, file string, extents ...ext.Extent) (miss []ext.Extent) {
	start := p.Now()
	c.statGets++
	now := p.Now()
	var auditMiss int64
	var homes [8]homeAcc
	perHome := homeBytes(homes[:0]) // hit bytes by home node
	cb := c.cfg.ChunkBytes
	ext.VisitSplit(extents, cb, func(piece ext.Extent) {
		idx, rel := piece.Off/cb, ext.Extent{Off: piece.Off % cb, Len: piece.Len}
		key := chunkKey{file, idx}
		ch := c.chunks[key]
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
			// wholesale).
			miss = append(miss, piece)
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
	miss = ext.Merge(miss)
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
	cb := c.cfg.ChunkBytes
	ext.VisitSplit(extents, cb, func(piece ext.Extent) {
		idx, rel := piece.Off/cb, ext.Extent{Off: piece.Off % cb, Len: piece.Len}
		key := chunkKey{file, idx}
		ch := c.chunks[key]
		if ch == nil {
			ch = &chunk{key: key}
			c.chunks[key] = ch
		}
		before := ext.Total(ch.valid)
		ch.valid = ext.Insert(ch.valid, rel)
		c.adjustUsed(ext.Total(ch.valid) - before)
		if dirty {
			ch.dirty = ext.Insert(ch.dirty, rel)
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
	var out []ext.Extent
	for key, ch := range c.chunks {
		if key.file != file {
			continue
		}
		base := key.idx * c.cfg.ChunkBytes
		for _, d := range ch.dirty {
			out = append(out, ext.Extent{Off: base + d.Off, Len: d.Len})
		}
	}
	return ext.Merge(out)
}

// DirtyFiles lists files with dirty data, sorted for determinism.
func (c *Cache) DirtyFiles() []string {
	seen := make(map[string]bool)
	var out []string
	for key, ch := range c.chunks {
		if len(ch.dirty) > 0 && !seen[key.file] {
			seen[key.file] = true
			out = append(out, key.file)
		}
	}
	sort.Strings(out)
	return out
}

// MarkClean clears dirty state after writeback (the data stays valid).
func (c *Cache) MarkClean(file string) {
	for key, ch := range c.chunks {
		if key.file == file {
			ch.dirty = nil
		}
	}
	// The chunks just became evictable. If every chunk was dirty when the
	// last put ran, no sweep is pending — without re-arming here the cleaned
	// chunks would sit in the cache forever.
	c.armSweeper()
}

// DirtyBytes reports total dirty bytes across files.
func (c *Cache) DirtyBytes() int64 {
	var t int64
	for _, ch := range c.chunks {
		t += ext.Total(ch.dirty)
	}
	return t
}

// DropFile removes all chunks of a file (used when a program exits the
// data-driven mode and its cache is reclaimed).
func (c *Cache) DropFile(file string) {
	for key, ch := range c.chunks {
		if key.file == file {
			c.adjustUsed(-ext.Total(ch.valid))
			delete(c.chunks, key)
		}
	}
}

// evictIdle removes clean chunks unreferenced for evictAfter.
func (c *Cache) evictIdle() {
	cutoff := c.k.Now() - evictAfter
	for key, ch := range c.chunks {
		if len(ch.dirty) == 0 && ch.lastRef < cutoff {
			c.adjustUsed(-ext.Total(ch.valid))
			delete(c.chunks, key)
			c.statEvictions++
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
