// Package tlb models set-associative, ASID-tagged translation lookaside
// buffers with LRU replacement, matching the Table-1 configuration: split
// L1 I/D TLBs per page size and large L2 TLBs.
//
// TLB behaviour is scheme-independent (the paper notes L2 TLB miss rates
// are identical across radix, ECPT and LVM); the schemes differ only in
// what happens after an L2 TLB miss.
package tlb

import (
	"math/bits"
	"strings"

	"lvm/internal/addr"
	"lvm/internal/metrics"
	"lvm/internal/pte"
	"lvm/internal/stats"
)

// Entry is one cached translation.
type entry struct {
	valid bool
	asid  uint16
	tag   addr.VPN // page-size-aligned VPN
	e     pte.Entry
}

// TLB is one set-associative TLB for a single page size.
type TLB struct {
	size     addr.PageSize
	ways     int
	setShift uint
	sets     [][]entry // each set ordered most-recent-first

	hits, misses stats.Counter
}

// New creates a TLB with the given total entries and associativity for one
// page size.
func New(entries, ways int, size addr.PageSize) *TLB {
	if entries%ways != 0 {
		//lint:allow nopanic compile-time geometry from sim.Config, never reachable from run inputs
		panic("tlb: entries must be a multiple of ways")
	}
	nsets := entries / ways
	if nsets&(nsets-1) != 0 {
		//lint:allow nopanic compile-time geometry from sim.Config, never reachable from run inputs
		panic("tlb: set count must be a power of two")
	}
	t := &TLB{size: size, ways: ways, sets: make([][]entry, nsets)}
	for i := range t.sets {
		t.sets[i] = make([]entry, 0, ways)
	}
	// setShift: index by the low bits of the size-aligned VPN. BaseVPNs is
	// a power of two, so the per-lookup division reduces to this shift.
	t.setShift = uint(bits.TrailingZeros64(size.BaseVPNs()))
	return t
}

// PageSize returns the page size this TLB caches.
func (t *TLB) PageSize() addr.PageSize { return t.size }

func (t *TLB) setIndex(tag addr.VPN) int {
	v := uint64(tag) >> t.setShift
	return int(v & uint64(len(t.sets)-1))
}

// Lookup returns the cached translation for the VPN, if present. The VPN is
// aligned internally to the TLB's page size.
func (t *TLB) Lookup(asid uint16, v addr.VPN) (pte.Entry, bool) {
	tag := addr.AlignDown(v, t.size)
	set := t.sets[t.setIndex(tag)]
	for i, e := range set {
		if e.valid && e.asid == asid && e.tag == tag {
			// Move to front (LRU).
			copy(set[1:i+1], set[:i])
			set[0] = e
			t.hits.Inc()
			return e.e, true
		}
	}
	t.misses.Inc()
	return 0, false
}

// Insert caches a translation, evicting the LRU way if needed.
func (t *TLB) Insert(asid uint16, v addr.VPN, e pte.Entry) {
	tag := addr.AlignDown(v, t.size)
	idx := t.setIndex(tag)
	set := t.sets[idx]
	for i, old := range set {
		if old.valid && old.asid == asid && old.tag == tag {
			set[i] = entry{valid: true, asid: asid, tag: tag, e: e}
			copy(set[1:i+1], set[:i])
			set[0] = entry{valid: true, asid: asid, tag: tag, e: e}
			return
		}
	}
	ne := entry{valid: true, asid: asid, tag: tag, e: e}
	if len(set) < t.ways {
		//lint:allow hotalloc append bounded by ways; sets reach capacity during warmup and never grow again
		set = append(set, entry{})
		copy(set[1:], set[:len(set)-1])
		set[0] = ne
		t.sets[idx] = set
		return
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = ne
}

// Invalidate drops the translation for one VPN (TLB shootdown).
func (t *TLB) Invalidate(asid uint16, v addr.VPN) {
	tag := addr.AlignDown(v, t.size)
	set := t.sets[t.setIndex(tag)]
	for i := range set {
		if set[i].valid && set[i].asid == asid && set[i].tag == tag {
			set[i].valid = false
		}
	}
}

// Snapshot implements metrics.Source: the TLB's hit/miss counters.
func (t *TLB) Snapshot() metrics.Set {
	var s metrics.Set
	s.Counter("hits", t.hits.Value())
	s.Counter("misses", t.misses.Value())
	return s
}

// Hierarchy is the paper's two-level TLB organization: per-page-size L1
// TLBs and per-page-size L2 TLBs.
type Hierarchy struct {
	L1 []*TLB
	L2 []*TLB
	// L1Latency and L2Latency are lookup latencies in cycles; L1 lookup
	// is folded into the pipeline (0 extra), L2 adds a few cycles.
	L2Latency int
}

// NewHierarchySized builds a hierarchy with custom entry counts: l1Small /
// l1Huge are the per-size L1 capacities, l2Small / l2Huge the per-size L2
// capacities. Used by the scaled machine model (footprints are scaled down
// from the paper's testbed, so TLB reach scales proportionally — and the
// 2 MB side scales by its own reach ratio).
func NewHierarchySized(l1Small, l1Huge, l2Small, l2Huge int) *Hierarchy {
	return &Hierarchy{
		L1: []*TLB{
			New(l1Small, 4, addr.Page4K),
			New(l1Huge, 4, addr.Page2M),
		},
		L2: []*TLB{
			New(l2Small, 8, addr.Page4K),
			New(l2Huge, 8, addr.Page2M),
		},
		L2Latency: 7,
	}
}

// Result describes where a lookup hit.
type Result struct {
	Entry   pte.Entry
	HitL1   bool
	HitL2   bool
	Latency int // extra cycles beyond a pipelined L1 hit
}

// Lookup probes L1 then L2 TLBs of every page size.
func (h *Hierarchy) Lookup(asid uint16, v addr.VPN) (Result, bool) {
	for _, t := range h.L1 {
		if e, ok := t.Lookup(asid, v); ok {
			// Validate granularity: a 4K TLB must not answer for VPNs it
			// cached under a different entry size (sizes are per-TLB, so
			// the tag check suffices).
			return Result{Entry: e, HitL1: true}, true
		}
	}
	for _, t := range h.L2 {
		if e, ok := t.Lookup(asid, v); ok {
			h.fillL1(asid, v, e)
			return Result{Entry: e, HitL2: true, Latency: h.L2Latency}, true
		}
	}
	return Result{Latency: h.L2Latency}, false
}

// Fill inserts a walked translation into the right L1 and L2 TLBs.
func (h *Hierarchy) Fill(asid uint16, v addr.VPN, e pte.Entry) {
	for _, t := range h.L2 {
		if t.PageSize() == e.Size() {
			t.Insert(asid, v, e)
		}
	}
	h.fillL1(asid, v, e)
}

func (h *Hierarchy) fillL1(asid uint16, v addr.VPN, e pte.Entry) {
	for _, t := range h.L1 {
		if t.PageSize() == e.Size() {
			t.Insert(asid, v, e)
		}
	}
}

// Shootdown invalidates one translation everywhere.
func (h *Hierarchy) Shootdown(asid uint16, v addr.VPN) {
	for _, t := range h.L1 {
		t.Invalidate(asid, v)
	}
	for _, t := range h.L2 {
		t.Invalidate(asid, v)
	}
}

// sizeLabel is the metric-namespace component for a page size ("4kb",
// "2mb"); names must stay stable, they are part of the JSON schema.
func sizeLabel(s addr.PageSize) string {
	return strings.ToLower(s.String())
}

// Snapshot implements metrics.Source. Per-TLB counters are namespaced by
// level and page size (tlb.l1.4kb.hits, ...); each level additionally
// carries its per-size sums (tlb.l2.hits, tlb.l2.misses — the walk-trigger
// accounting every figure derives rates from).
func (h *Hierarchy) Snapshot() metrics.Set {
	var s metrics.Set
	level := func(name string, tlbs []*TLB) {
		for _, t := range tlbs {
			snap := t.Snapshot()
			s.Merge(name+"."+sizeLabel(t.PageSize()), snap)
			s.Merge(name, snap)
		}
	}
	level("l1", h.L1)
	level("l2", h.L2)
	return s
}

var _ metrics.Source = (*Hierarchy)(nil)
