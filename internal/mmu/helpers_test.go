package mmu

import (
	"lvm/internal/addr"
	"lvm/internal/stats"
)

// Readers and controls only the tests use.

// AllRefs returns every request of the walk in issue order, flattened
// across groups — a read-only view into the walker's buffer.
func (o Outcome) AllRefs() []addr.PA { return o.pas[:len(o.pas):len(o.pas)] }

// VerifyGroups returns the number of trailing groups in the verify suffix
// (0 = no verify region).
func (o Outcome) VerifyGroups() int { return o.verifyGroups }

// HasVerify reports whether the walk carries an overlappable verify suffix.
func (o Outcome) HasVerify() bool { return o.verifyGroups > 0 }

// Latency is the plain walk cost: sequential sum over groups of the max of a
// fixed per-request latency, ignoring verify overlap. Identical to
// OverlapLatency with a zero access (nothing to hide the suffix behind).
func (o Outcome) Latency(perRef, walkCache int) int {
	// Every group carries at least one request, so each charges perRef.
	return o.WalkCacheCycles*walkCache + len(o.ends)*perRef
}

// OverlapLatency is the overlap-aware companion of Latency: the
// critical prefix is serial as before, while the verify suffix runs
// concurrently with a data access of the given latency — the walk's exposed
// cost is the prefix plus max(verify, access). With no verify region this
// degenerates to Latency(perRef, walkCache) + access.
func (o Outcome) OverlapLatency(perRef, walkCache, access int) int {
	crit := o.WalkCacheCycles*walkCache + o.CriticalGroups()*perRef
	tail := o.verifyGroups * perRef
	if access > tail {
		tail = access
	}
	return crit + tail
}

// invalidate tombstones one key: the slot keeps its recency position (it
// still ages out through the tail) but can no longer hit.
func (c *lruCache[K]) invalidate(key K) {
	if i := c.find(key); i >= 0 {
		c.nodes[i].valid = false
	}
}

// Hits returns the hit count.
func (c *LWC) Hits() uint64 { return c.hits.Value() }

// Misses returns the miss count.
func (c *LWC) Misses() uint64 { return c.misses.Value() }

// Invalidate drops one prefix (on unmap of upper-level structures).
func (c *PWC) Invalidate(asid uint16, prefix uint64) {
	c.lru.invalidate(pwcKey{asid, prefix})
}

// HitRate returns hits / lookups.
func (c *PWC) HitRate() float64 {
	return stats.Ratio(c.hits.Value(), c.hits.Value()+c.misses.Value())
}
