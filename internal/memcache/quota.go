package memcache

import "fmt"

// Quota is one tenant's partition of the cluster's global-cache capacity.
// Every cache a tenant's jobs create registers against the tenant's quota;
// the quota then bounds the *sum* of their resident bytes, and eviction
// under quota pressure is isolated to the tenant's own caches — one
// tenant's working set can never push another tenant's data out.
//
// Quota is the cache's one capacity rule: while the partition is
// over its limit, the least recently referenced fully-clean chunk across
// the member caches is evicted (ties broken by chunk key, then member
// registration order — deterministic whatever the map iteration order). Dirty
// data is never dropped, so a partition whose every chunk holds dirty bytes
// may transiently exceed its limit until writeback drains it; Check treats
// exactly that state as legal and everything else over-limit as a
// violation.
//
// A nil *Quota (the default — Cache.SetQuota never called) takes none of
// these paths: untenanted runs are byte-identical to builds without the
// type.
type Quota struct {
	key    string
	limit  int64 // 0 = unbounded (registration/accounting only)
	used   int64
	caches []*Cache

	statEvictions int64
}

// NewQuota returns a partition named key (used in violation messages)
// holding at most limit valid bytes across its member caches; limit 0
// means unbounded.
func NewQuota(key string, limit int64) *Quota {
	if limit < 0 {
		panic(fmt.Sprintf("memcache: quota %s limit %d", key, limit))
	}
	return &Quota{key: key, limit: limit}
}

// Key returns the partition's name.
func (q *Quota) Key() string { return q.key }

// Limit returns the partition's byte limit (0 = unbounded).
func (q *Quota) Limit() int64 { return q.limit }

// Used returns the valid bytes resident across the member caches.
func (q *Quota) Used() int64 { return q.used }

// Evictions reports chunks evicted by quota pressure. Each member also
// counts its share of them in its own evictions, next to idle evictions.
func (q *Quota) Evictions() int64 { return q.statEvictions }

// SetQuota registers the cache as a member of the partition. Call once,
// before the cache holds data; a nil quota is a no-op (untenanted).
func (c *Cache) SetQuota(q *Quota) {
	if q == nil {
		return
	}
	if c.quota != nil {
		panic("memcache: cache already has a quota")
	}
	if c.used != 0 {
		panic("memcache: SetQuota on a non-empty cache")
	}
	c.quota = q
	q.caches = append(q.caches, c)
}

// adjustUsed moves the cache's used ledger by delta, mirroring the change
// into the cache's partition quota when one is attached.
func (c *Cache) adjustUsed(delta int64) {
	c.used += delta
	if c.quota != nil {
		c.quota.used += delta
	}
}

// enforce evicts the least recently referenced fully-clean chunk across
// the member caches while the partition is over its limit. Chunks holding
// any dirty bytes are skipped (writeback will drain them); when only those
// remain the partition legally exceeds its limit until it drains.
func (q *Quota) enforce() {
	if q == nil || q.limit == 0 {
		return
	}
	for q.used > q.limit {
		var victim *chunk
		var owner *Cache
		var vf *cacheFile
		var vidx int64
		for _, c := range q.caches {
			if c.resident == c.dirty {
				continue // nothing clean to evict here
			}
			for _, f := range c.files {
				for idx, ch := range f.chunks {
					if ch == nil || len(ch.dirty) > 0 {
						continue
					}
					if victim == nil || ch.lastRef < victim.lastRef ||
						(ch.lastRef == victim.lastRef &&
							lessKey(chunkKey{f.name, int64(idx)}, chunkKey{vf.name, vidx})) {
						victim, owner, vf, vidx = ch, c, f, int64(idx)
					}
				}
			}
		}
		if victim == nil {
			return // everything dirty; writeback will drain
		}
		owner.release(vf, vidx)
		owner.statEvictions++
		q.statEvictions++
	}
}

// Check is the partition's audit probe: the quota ledger must equal the sum
// of the member caches' used bytes, and the partition may exceed its limit
// only while every resident chunk holds dirty bytes (the one state
// enforcement legally cannot clear).
func (q *Quota) Check() error {
	var used int64
	for _, c := range q.caches {
		used += c.used
	}
	if used != q.used {
		return fmt.Errorf("quota %s: ledger %d != %d bytes across %d member caches",
			q.key, q.used, used, len(q.caches))
	}
	if q.limit == 0 || q.used <= q.limit {
		return nil
	}
	for _, c := range q.caches {
		for _, f := range c.files {
			for idx, ch := range f.chunks {
				if ch != nil && len(ch.dirty) == 0 {
					return fmt.Errorf("quota %s: %d used over limit %d with evictable clean chunk %s/%d",
						q.key, q.used, q.limit, f.name, idx)
				}
			}
		}
	}
	return nil // over limit, but every chunk is pinned by dirty data
}
