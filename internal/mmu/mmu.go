// Package mmu defines the hardware page-walker interface shared by every
// translation scheme, the per-ASID table registry every walker embeds, and
// the walk-cache building blocks: the radix page walk cache (PWC) and LVM's
// walk cache (LWC, paper §4.6.2 / Fig. 8).
//
// A Walker turns an L2-TLB miss into a sequence of memory requests. The
// simulator charges each request to the cache hierarchy; requests within a
// group are issued in parallel (ECPT's probes), groups are sequential
// (radix's pointer chase, LVM's node fetches).
//
// Walk traces are flat and allocation-free: each walker owns a reusable
// WalkBuf holding the requests of the current walk as one []addr.PA plus
// group boundaries, and Outcome is a read-only view into that buffer. The
// view is valid until the walker's next Walk — the simulator consumes it
// immediately, so the steady-state translate-then-access loop never touches
// the heap.
package mmu

import (
	"lvm/internal/addr"
	"lvm/internal/metrics"
	"lvm/internal/pte"
	"lvm/internal/stats"
)

// Outcome is the trace of one hardware page walk. The request trace
// (Group/AllRefs) aliases the walker's reusable buffer and is valid only
// until that walker's next Walk; callers that need it longer must copy.
//
// A trace optionally carries a verify region: a suffix of trailing groups
// (marked via WalkBuf.BeginVerify) that resolves speculation rather than the
// translation itself. The critical prefix must complete before the data
// access can start; the verify suffix runs concurrently with it, so the
// simulator charges max(verify, access) instead of their sum. Traces without
// a verify region (every non-speculative scheme) are charged exactly as
// before.
type Outcome struct {
	Entry pte.Entry
	Found bool
	// WalkCacheCycles is the time spent in walk-cache lookups and model
	// computation (2 cycles per step in Table 1).
	WalkCacheCycles int

	// pas holds every memory request of the walk, flattened in issue
	// order; ends[i] is the index one past group i's last request. Groups
	// are sequential, requests within one group are issued in parallel.
	pas  []addr.PA
	ends []int
	// verifyGroups counts the trailing groups forming the verify suffix;
	// zero means no verify region (the flat pre-speculation contract).
	verifyGroups int
}

// Refs returns the total number of memory requests — the page-walk-traffic
// metric of Figure 11.
func (o Outcome) Refs() int { return len(o.pas) }

// NumGroups returns the number of sequential request groups. Groups are
// never empty by construction.
func (o Outcome) NumGroups() int { return len(o.ends) }

// Group returns the i-th group's requests as a read-only view into the
// walker's buffer (capped so an append cannot clobber the neighbors).
func (o Outcome) Group(i int) []addr.PA {
	lo := 0
	if i > 0 {
		lo = o.ends[i-1]
	}
	hi := o.ends[i]
	return o.pas[lo:hi:hi]
}

// AllRefs returns every request of the walk in issue order, flattened
// across groups — a read-only view into the walker's buffer.
func (o Outcome) AllRefs() []addr.PA { return o.pas[:len(o.pas):len(o.pas)] }

// VerifyGroups returns the number of trailing groups in the verify suffix
// (0 = no verify region).
func (o Outcome) VerifyGroups() int { return o.verifyGroups }

// CriticalGroups returns the number of leading groups on the critical
// resolve path — everything the data access must wait for. With no verify
// region this is NumGroups.
func (o Outcome) CriticalGroups() int { return len(o.ends) - o.verifyGroups }

// HasVerify reports whether the walk carries an overlappable verify suffix.
func (o Outcome) HasVerify() bool { return o.verifyGroups > 0 }

// Latency is a helper for tests: sequential sum over groups of the max of a
// fixed per-request latency, ignoring verify overlap. Identical to
// OverlapLatency with a zero access (nothing to hide the suffix behind).
func (o Outcome) Latency(perRef, walkCache int) int {
	// Every group carries at least one request, so each charges perRef.
	return o.WalkCacheCycles*walkCache + len(o.ends)*perRef
}

// OverlapLatency is the overlap-aware companion of Latency for tests: the
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

// WalkBuf is the reusable walk-trace buffer a walker owns. A walk resets
// it, appends request groups, and snapshots it into an Outcome; in steady
// state (after the buffer has grown to the scheme's maximum trace length)
// no call allocates. WalkBuf is not safe for concurrent use — a walker,
// like the hardware it models, performs one walk at a time.
type WalkBuf struct {
	pas  []addr.PA
	ends []int
	// collapse folds every group into one (ASAP issues its prefetches and
	// the validating radix walk as a single parallel burst).
	collapse bool
	// verifyMark, when non-zero, is 1 + the number of groups sealed before
	// BeginVerify was called: groups from that index on form the verify
	// suffix. Zero (the zero value and the Reset state) means no verify
	// region.
	verifyMark int
}

// Reset clears the buffer for a new walk, retaining capacity.
func (b *WalkBuf) Reset() {
	b.pas = b.pas[:0]
	b.ends = b.ends[:0]
	b.collapse = false
	b.verifyMark = 0
}

// Collapse makes every subsequent group boundary fold into a single
// parallel group, until the next Reset.
func (b *WalkBuf) Collapse() { b.collapse = true }

// BeginVerify seals the critical prefix and marks everything appended from
// here on as the verify suffix — the requests that resolve speculation
// concurrently with the data access (Outcome's verify region). A walk that
// appends nothing after the mark seals with no verify region. BeginVerify
// does not compose with Collapse: a collapsed trace is one parallel group,
// so the mark would select an empty suffix.
func (b *WalkBuf) BeginVerify() {
	b.closeGroup()
	b.verifyMark = len(b.ends) + 1
}

// closeGroup seals the requests appended since the last boundary into a
// group. Empty groups are never recorded.
func (b *WalkBuf) closeGroup() {
	n := len(b.pas)
	last := 0
	if len(b.ends) > 0 {
		last = b.ends[len(b.ends)-1]
	}
	if n == last {
		return
	}
	if b.collapse && len(b.ends) > 0 {
		b.ends[len(b.ends)-1] = n
		return
	}
	b.ends = append(b.ends, n)
}

// Group starts a new sequential group; requests Added afterwards belong to
// it. A group left empty is dropped.
func (b *WalkBuf) Group() { b.closeGroup() }

// Add appends one request to the current group.
func (b *WalkBuf) Add(pa addr.PA) { b.pas = append(b.pas, pa) }

// AddGroup appends one sequential group of parallel requests. The variadic
// slice does not escape, so constant-arity calls stay on the stack.
func (b *WalkBuf) AddGroup(pas ...addr.PA) {
	b.closeGroup()
	b.pas = append(b.pas, pas...)
}

// Outcome seals the trace and returns the walk's read-only view, valid
// until the buffer's next Reset.
func (b *WalkBuf) Outcome(e pte.Entry, found bool, walkCacheCycles int) Outcome {
	b.closeGroup()
	vg := 0
	if b.verifyMark > 0 {
		vg = len(b.ends) - (b.verifyMark - 1)
	}
	return Outcome{Entry: e, Found: found, WalkCacheCycles: walkCacheCycles,
		pas: b.pas, ends: b.ends, verifyGroups: vg}
}

// Walker is a hardware page table walker.
type Walker interface {
	// Name identifies the scheme ("radix", "ecpt", "lvm", ...).
	Name() string
	// Walk translates v in address space asid. The returned Outcome's
	// request trace is valid until the walker's next Walk.
	Walk(asid uint16, v addr.VPN) Outcome
}

// Tables is a walker's per-ASID table registry: the ASID-tagged attachment
// the hardware finds the current address space's table through (§4.6.2).
// Walk caches are ASID-tagged too, so Drop plus the walker's own per-ASID
// cache flushes is all a process exit needs. A one-entry memo of the last
// resolved ASID lets the walk path skip the map while one address space
// runs. The zero value is ready to use; walkers embed it, so Attach, Drop
// and Table are theirs.
type Tables[T any] struct {
	m map[uint16]T
	// last is the table of lastASID, valid while lastOK; Attach and Drop
	// clear it.
	lastASID uint16
	last     T
	lastOK   bool
}

// Attach registers t under asid, replacing any table already there.
func (r *Tables[T]) Attach(asid uint16, t T) {
	if r.m == nil {
		r.m = make(map[uint16]T)
	}
	r.m[asid] = t
	r.lastOK = false
}

// Drop removes asid's table.
func (r *Tables[T]) Drop(asid uint16) {
	delete(r.m, asid)
	r.lastOK = false
}

// Table resolves asid's table through the memo.
func (r *Tables[T]) Table(asid uint16) (T, bool) {
	if r.lastOK && r.lastASID == asid {
		return r.last, true
	}
	t, ok := r.m[asid]
	if ok {
		r.lastASID, r.last, r.lastOK = asid, t, true
	}
	return t, ok
}

// Lookuper is a pure functional resolve: Lookup translates v through the
// walker's own table and returns the Entry/Found its Walk would, without
// probing or filling any walk cache, emitting a request trace, or changing
// the walker's metric snapshot. The simulator never calls it; it serves
// callers that need a translation without disturbing timing state.
type Lookuper interface {
	Lookup(asid uint16, v addr.VPN) (pte.Entry, bool)
}

// BatchWalker extends Walker with a batched seam: one call walks a miss
// batch in order, leaving slot i with exactly the Outcome Walk(asid,
// vpns[i]) would have returned, valid until the next WalkBatch. Every
// walker implements it with WalkSerial.
type BatchWalker interface {
	Walker
	WalkBatch(asid uint16, vpns []addr.VPN, bufs *WalkBatchBuf)
}

// WalkBatchBuf holds the per-slot walk buffers and sealed outcomes of one
// WalkBatch call. The caller owns one and passes it to WalkBatch; slots are
// reused across batches, so in steady state no call allocates.
type WalkBatchBuf struct {
	bufs []WalkBuf
	outs []Outcome
}

// Reset prepares n slots for a new batch, retaining per-slot capacity.
func (b *WalkBatchBuf) Reset(n int) {
	for len(b.bufs) < n {
		//lint:allow hotalloc slot slices grow to the batch size once, then recycle
		b.bufs = append(b.bufs, WalkBuf{})
		//lint:allow hotalloc slot slices grow to the batch size once, then recycle
		b.outs = append(b.outs, Outcome{})
	}
	for i := 0; i < n; i++ {
		b.bufs[i].Reset()
	}
}

// Outcome returns slot i's sealed result, valid until the next Reset.
func (b *WalkBatchBuf) Outcome(i int) Outcome { return b.outs[i] }

// WalkSerial implements the WalkBatch seam for any Walker by looping Walk
// and copying each trace into its slot. It is generic over the walker type
// so a walker passing itself is not boxed into an interface.
func WalkSerial[W Walker](w W, asid uint16, vpns []addr.VPN, bufs *WalkBatchBuf) {
	bufs.Reset(len(vpns))
	for i, v := range vpns {
		out := w.Walk(asid, v)
		b := &bufs.bufs[i]
		//lint:allow hotalloc appends grow each slot to the scheme's max trace once
		b.pas = append(b.pas[:0], out.pas...)
		//lint:allow hotalloc appends grow each slot to the scheme's max trace once
		b.ends = append(b.ends[:0], out.ends...)
		bufs.outs[i] = Outcome{
			Entry:           out.Entry,
			Found:           out.Found,
			WalkCacheCycles: out.WalkCacheCycles,
			pas:             b.pas,
			ends:            b.ends,
			verifyGroups:    out.verifyGroups,
		}
	}
}

// StepCycles is the walk-cache lookup / model-computation latency per step
// (Table 1: 2 cycles for PWC, CWC and LWC).
const StepCycles = 2

// --- Shared LRU engine ------------------------------------------------------

// lruNode is one recency slot: a key plus its intrusive list links. Slots
// are slab-allocated up front; an invalidated slot stays in recency order
// as a tombstone (exactly like the historical in-place valid=false mark)
// until it ages out through the tail.
type lruNode[K comparable] struct {
	key        K
	asid       uint16
	valid      bool
	prev, next int32
}

// lruCache is the fully associative LRU shared by the LWC and PWC: lookup
// is a linear scan over a dense key slice (walk-cache capacities top out at
// 32 entries, so a few cache lines of keys beat a map's hashing and probe
// on the walk hot path), recency updates are O(1) via the intrusive list.
// It reproduces the historical move-to-front slice semantics exactly —
// including tombstoned slots occupying capacity until evicted. None of the
// steady-state operations allocate once the slabs reach the fixed capacity.
type lruCache[K comparable] struct {
	keys       []K          // dense scan target, parallel to nodes
	nodes      []lruNode[K] // recency links + validity; len mirrors keys
	head, tail int32        // recency list: head = MRU, tail = LRU
	capacity   int
	// missKey memoizes the last failed find: the walk-path pattern is
	// lookup-miss immediately followed by insert of the same key, and the
	// memo lets that insert skip its duplicate-detection rescan. Any insert
	// clears it (the only operation that can add a key).
	missKey   K
	missValid bool
}

func newLRU[K comparable](capacity int) lruCache[K] {
	return lruCache[K]{
		keys:     make([]K, 0, max(capacity, 0)),
		nodes:    make([]lruNode[K], 0, max(capacity, 0)),
		head:     -1,
		tail:     -1,
		capacity: capacity,
	}
}

// find returns the slab index of the valid entry for key, or -1 (recording
// the miss memo). At most one valid slot carries a given key (insert
// tombstones duplicates).
func (c *lruCache[K]) find(key K) int32 {
	for i, k := range c.keys {
		if k == key && c.nodes[i].valid {
			return int32(i)
		}
	}
	c.missKey = key
	c.missValid = true
	return -1
}

func (c *lruCache[K]) unlink(i int32) {
	n := c.nodes[i]
	if n.prev >= 0 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next >= 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *lruCache[K]) pushFront(i int32) {
	c.nodes[i].prev = -1
	c.nodes[i].next = c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// lookup probes for a key; on hit the slot moves to MRU.
func (c *lruCache[K]) lookup(key K) bool {
	i := c.find(key)
	if i < 0 {
		return false
	}
	if i != c.head {
		c.unlink(i)
		c.pushFront(i)
	}
	return true
}

// insert places a key at MRU, consuming one recency slot exactly as the
// historical shift-down did: below capacity the slab grows, at capacity the
// tail slot — LRU entry or aged tombstone — is evicted and reused. A
// duplicate insert tombstones the older copy first; observationally
// identical to the old duplicate-in-slice behavior, where the newer copy
// always sat closer to MRU (only it could hit) and the older one aged out
// through the tail.
func (c *lruCache[K]) insert(key K, asid uint16) {
	if c.capacity <= 0 {
		return
	}
	// Skip the duplicate rescan when a find for this exact key just missed
	// (the universal walk-path sequence); no insert happened in between, so
	// the key is still absent.
	if !(c.missValid && c.missKey == key) {
		if old := c.find(key); old >= 0 {
			c.nodes[old].valid = false
		}
	}
	c.missValid = false
	var i int32
	if len(c.nodes) < c.capacity {
		//lint:allow hotalloc append bounded by capacity; nodes fill during warmup then recycle via LRU tail
		c.nodes = append(c.nodes, lruNode[K]{})
		//lint:allow hotalloc append bounded by capacity; keys fill during warmup then recycle via LRU tail
		c.keys = append(c.keys, key)
		i = int32(len(c.nodes) - 1)
	} else {
		i = c.tail
		c.unlink(i)
	}
	c.keys[i] = key
	c.nodes[i] = lruNode[K]{key: key, asid: asid, valid: true, prev: -1, next: -1}
	c.pushFront(i)
}

// invalidate tombstones one key: the slot keeps its recency position (it
// still ages out through the tail) but can no longer hit.
func (c *lruCache[K]) invalidate(key K) {
	if i := c.find(key); i >= 0 {
		c.nodes[i].valid = false
	}
}

// flushASID tombstones every entry of one address space. Flushes are rare
// control events (process exit, OS retrain), never on the walk path.
func (c *lruCache[K]) flushASID(asid uint16) {
	for i := range c.nodes {
		if c.nodes[i].valid && c.nodes[i].asid == asid {
			c.nodes[i].valid = false
		}
	}
}

// --- LVM walk cache -------------------------------------------------------

// lwcKey identifies one cached learned-index node (Fig. 8): the 16-byte
// model's (ASID, level, offset) identity.
type lwcKey struct {
	asid          uint16
	level, offset int
}

// LWC is LVM's fully associative walk cache. Per §4.6.2 it stores
// individual models on demand, is ASID-tagged (no flush on context switch),
// and is flushed per-entry only when the OS retrains a node. Lookup and
// Insert are O(1).
type LWC struct {
	lru lruCache[lwcKey]

	hits, misses stats.Counter
}

// NewLWC creates an LWC with the given entry count (Table 1: 16).
func NewLWC(entries int) *LWC {
	return &LWC{lru: newLRU[lwcKey](entries)}
}

// Lookup probes for a node; on hit the entry moves to MRU.
func (c *LWC) Lookup(asid uint16, level, offset int) bool {
	if c.lru.lookup(lwcKey{asid, level, offset}) {
		c.hits.Inc()
		return true
	}
	c.misses.Inc()
	return false
}

// Insert caches a node fetched from memory, evicting the LRU entry.
func (c *LWC) Insert(asid uint16, level, offset int) {
	c.lru.insert(lwcKey{asid, level, offset}, asid)
}

// FlushNode drops one node (the OS does this after retraining, §5.2).
func (c *LWC) FlushNode(asid uint16, level, offset int) {
	c.lru.invalidate(lwcKey{asid, level, offset})
}

// FlushASID drops all nodes of one address space (used on index rebuild).
func (c *LWC) FlushASID(asid uint16) { c.lru.flushASID(asid) }

// HitRate returns hits / lookups.
func (c *LWC) HitRate() float64 {
	return stats.Ratio(c.hits.Value(), c.hits.Value()+c.misses.Value())
}

// Hits returns the hit count.
func (c *LWC) Hits() uint64 { return c.hits.Value() }

// Misses returns the miss count.
func (c *LWC) Misses() uint64 { return c.misses.Value() }

// SizeBytes returns the SRAM capacity implied by the configuration: 16
// bytes of model per entry (plus tags, accounted in internal/hwarea).
func (c *LWC) SizeBytes() int { return c.lru.capacity * 16 }

// Snapshot implements metrics.Source: the walk cache's hit/miss counters.
func (c *LWC) Snapshot() metrics.Set {
	var s metrics.Set
	s.Counter("hits", c.hits.Value())
	s.Counter("misses", c.misses.Value())
	return s
}

var _ metrics.Source = (*LWC)(nil)

// --- Radix page walk cache -------------------------------------------------

// pwcKey is the (ASID, VPN-prefix) identity of one upper-level entry.
type pwcKey struct {
	asid   uint16
	prefix uint64
}

// PWC is one level of a radix page walk cache: a fully associative cache of
// upper-level entries keyed by the VPN prefix that indexes that level.
// Lookup and Insert are O(1).
type PWC struct {
	name string
	lru  lruCache[pwcKey]

	hits, misses stats.Counter
}

// NewPWC creates one PWC level with the given capacity (Table 1: 32
// entries per level, 3 levels).
func NewPWC(name string, entries int) *PWC {
	return &PWC{name: name, lru: newLRU[pwcKey](entries)}
}

// Lookup probes for the upper-level entry covering the VPN prefix.
func (c *PWC) Lookup(asid uint16, prefix uint64) bool {
	if c.lru.lookup(pwcKey{asid, prefix}) {
		c.hits.Inc()
		return true
	}
	c.misses.Inc()
	return false
}

// Insert caches an upper-level entry.
func (c *PWC) Insert(asid uint16, prefix uint64) {
	c.lru.insert(pwcKey{asid, prefix}, asid)
}

// Invalidate drops one prefix (on unmap of upper-level structures).
func (c *PWC) Invalidate(asid uint16, prefix uint64) {
	c.lru.invalidate(pwcKey{asid, prefix})
}

// FlushASID drops all entries of one address space (process exit).
func (c *PWC) FlushASID(asid uint16) { c.lru.flushASID(asid) }

// HitRate returns hits / lookups.
func (c *PWC) HitRate() float64 {
	return stats.Ratio(c.hits.Value(), c.hits.Value()+c.misses.Value())
}

// MissRate returns misses / lookups.
func (c *PWC) MissRate() float64 {
	return stats.Ratio(c.misses.Value(), c.hits.Value()+c.misses.Value())
}

// Name returns the level label ("pml4e", "pdpte", "pde").
func (c *PWC) Name() string { return c.name }

// Snapshot implements metrics.Source: the level's hit/miss counters. The
// owning walker namespaces them by the level's Name.
func (c *PWC) Snapshot() metrics.Set {
	var s metrics.Set
	s.Counter("hits", c.hits.Value())
	s.Counter("misses", c.misses.Value())
	return s
}

var _ metrics.Source = (*PWC)(nil)
