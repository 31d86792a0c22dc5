// Package gapped implements LVM's gapped page tables (paper §4.2.2): small
// arrays of VPN-tagged page table entries with deliberate empty slots
// ("gaps") left at build time so that later insertions rarely displace
// anything.
//
// A table is backed by physically contiguous extents allocated from the
// buddy allocator. The common case is a single extent — the leaf model's
// output plus the extent base yields the PTE's physical address directly.
// When a table is expanded (rescaling, §4.3.4) LVM first tries to grow the
// existing extent in place via phys.AllocExact; only if the neighbouring
// physical block is taken does it chain a second extent. Extent bases are
// part of the leaf node's cached descriptor, so lookups remain single-access
// either way.
package gapped

import (
	"errors"
	"fmt"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

// SlotBytes is the physical footprint of one tagged slot.
const SlotBytes = pte.TaggedBytes

// SlotsPerPage is the number of slots in one 4 KB page.
const SlotsPerPage = addr.PageSize4K / SlotBytes

// ErrFull is returned when an insertion cannot find a free slot within its
// search reach; the caller (the learned index) responds by retraining the
// leaf or subdividing (paper §4.3.4).
var ErrFull = errors.New("gapped: no free slot within reach")

// extent is one physically contiguous piece of the table.
type extent struct {
	base  addr.PPN // first physical page
	order int      // buddy order of the allocation
	slots int      // number of slots in this extent
	start int      // first slot index covered
}

// Table is a gapped page table.
type Table struct {
	mem      *phys.Memory
	extents  []extent
	slots    []pte.Tagged
	used     int
	unsorted bool
	// clusterScratch backs LookupResult.Clusters: a result's Clusters view
	// it and stay valid only until the table's next Lookup/LookupBinary.
	clusterScratch []int
}

// New allocates a gapped table with capacity for at least nslots slots,
// bounded by the largest physically contiguous block currently available
// (maxOrder). The actual capacity is rounded up to whole pages.
func New(mem *phys.Memory, nslots, maxOrder int) (*Table, error) {
	if nslots < 1 {
		nslots = 1
	}
	bytes := uint64(nslots) * SlotBytes
	order := phys.OrderForBytes(bytes)
	if order > maxOrder {
		order = maxOrder
	}
	base, err := mem.Alloc(order)
	if err != nil {
		return nil, fmt.Errorf("gapped: allocating order-%d table: %w", order, err)
	}
	capSlots := int(phys.BlockBytes(order) / SlotBytes)
	t := &Table{
		mem:     mem,
		extents: []extent{{base: base, order: order, slots: capSlots, start: 0}},
		slots:   make([]pte.Tagged, capSlots),
	}
	return t, nil
}

// Slots returns the table's slot capacity.
func (t *Table) Slots() int { return len(t.slots) }

// Used returns the number of occupied slots.
func (t *Table) Used() int { return t.used }

// Extents returns the number of physically contiguous runs backing the
// table (1 in the common case; in-place expansions keep the run count at 1
// even though they add allocator blocks).
func (t *Table) Extents() int {
	runs := 0
	var nextPA addr.PA
	for i, e := range t.extents {
		pa := addr.PAOf(e.base)
		if i == 0 || pa != nextPA {
			runs++
		}
		nextPA = pa + addr.PA(phys.BlockBytes(e.order))
	}
	return runs
}

// FootprintBytes returns the physical memory consumed by the table,
// including gaps — the quantity §7.3's memory-consumption comparison sums.
func (t *Table) FootprintBytes() uint64 {
	var b uint64
	for _, e := range t.extents {
		b += phys.BlockBytes(e.order)
	}
	return b
}

// SlotPA returns the physical address of slot i.
func (t *Table) SlotPA(i int) addr.PA {
	for _, e := range t.extents {
		if i >= e.start && i < e.start+e.slots {
			return addr.SlotPA(e.base, uint64(i-e.start), SlotBytes)
		}
	}
	//lint:allow hotalloc panic guard, unreachable while extents cover the table
	panic(fmt.Sprintf("gapped: slot %d out of range (cap %d)", i, len(t.slots)))
}

// ClusterOf returns the cache-line cluster index containing slot i; the
// walker fetches whole 64-byte clusters (pte.ClusterSlots slots each).
func ClusterOf(i int) int { return i / pte.ClusterSlots }

// ClusterPA returns the physical address of cluster c (its first slot).
func (t *Table) ClusterPA(c int) addr.PA { return t.SlotPA(c * pte.ClusterSlots) }

// Get returns the slot contents.
func (t *Table) Get(i int) pte.Tagged { return t.slots[i] }

// Set stores a slot directly (used by the OS for PTE modifications that do
// not move entries, e.g. permission changes).
func (t *Table) Set(i int, s pte.Tagged) {
	if t.slots[i].Valid() && !s.Valid() {
		t.used--
	} else if !t.slots[i].Valid() && s.Valid() {
		t.used++
	}
	t.slots[i] = s
}

// clamp bounds a predicted slot into the table.
func (t *Table) clamp(pred int) int {
	if pred < 0 {
		return 0
	}
	if pred >= len(t.slots) {
		return len(t.slots) - 1
	}
	return pred
}

// Insert places a tagged entry at the predicted slot, or at the nearest
// free slot found by searching outward (the paper's exponential search,
// §4.3.2). reach bounds how far (in slots) the search may stray; a reach
// of r keeps worst-case lookup within the trained error bound.
//
// It returns the chosen slot and whether the predicted slot was already
// occupied by a different key (a collision in the paper's §7.3 sense).
func (t *Table) Insert(pred int, tag addr.VPN, e pte.Entry, reach int) (slot int, collided bool, err error) {
	p := t.clamp(pred)
	if cur := t.slots[p]; cur.Valid() && cur.Tag == tag {
		// Re-map of an existing key: overwrite in place.
		t.slots[p].Entry = e
		return p, false, nil
	}
	if !t.slots[p].Valid() {
		t.slots[p] = pte.Tagged{Tag: tag, Entry: e}
		t.used++
		return p, false, nil
	}
	// Predicted slot taken by another key: search outward over the full
	// reach for an existing slot holding this key — overwriting in place is
	// mandatory, because placing a second entry for the same tag leaves a
	// stale duplicate that a later walk or retrain can resurrect. Only when
	// the key is provably absent within reach does the entry go to the
	// nearest free slot seen along the way (the paper's exponential search,
	// §4.3.2), preferring the closer side. Displacements beyond one cluster
	// void the approximate sortedness the binary miss path relies on; the
	// table flags itself so misses fall back to the exhaustive search.
	free, freeDist := -1, 0
	for d := 1; d <= reach; d++ {
		if p+d < len(t.slots) {
			if cur := t.slots[p+d]; cur.Valid() && cur.Tag == tag {
				t.slots[p+d].Entry = e
				return p + d, true, nil
			} else if !cur.Valid() && free < 0 {
				free, freeDist = p+d, d
			}
		}
		if p-d >= 0 {
			if cur := t.slots[p-d]; cur.Valid() && cur.Tag == tag {
				t.slots[p-d].Entry = e
				return p - d, true, nil
			} else if !cur.Valid() && free < 0 {
				free, freeDist = p-d, d
			}
		}
	}
	if free >= 0 {
		t.slots[free] = pte.Tagged{Tag: tag, Entry: e}
		t.used++
		if freeDist > pte.ClusterSlots {
			t.unsorted = true
		}
		return free, true, nil
	}
	return 0, true, ErrFull
}

// PlaceFrom inserts during an ascending bulk build: the slot is the first
// free slot at or above max(pred, hint). Because bulk builds insert keys in
// ascending key order with monotone predictions, the scan never needs to
// look below the hint, which keeps pathological plateau placements linear.
// Returns the chosen slot (also the next hint).
func (t *Table) PlaceFrom(hint, pred int, tag addr.VPN, e pte.Entry) (int, error) {
	p := t.clamp(pred)
	if p < hint {
		p = hint
	}
	for p < len(t.slots) && t.slots[p].Valid() {
		p++
	}
	if p >= len(t.slots) {
		// Clamped predictions piled up at the table end; fall back to the
		// first free slot anywhere (rare, pathological spaces only). This
		// voids approximate sortedness.
		t.unsorted = true
		p = 0
		for p < len(t.slots) && t.slots[p].Valid() {
			p++
		}
		if p >= len(t.slots) {
			return 0, ErrFull
		}
	}
	t.slots[p] = pte.Tagged{Tag: tag, Entry: e}
	t.used++
	return p, nil
}

// LookupResult reports the outcome of a table lookup.
type LookupResult struct {
	Entry pte.Entry
	Slot  int
	// Accesses is the number of 64-byte cluster fetches performed,
	// including the first; single-access translation means Accesses == 1.
	Accesses int
	// Clusters lists the cluster indices fetched, in fetch order; the
	// simulator turns these into physical cache-line addresses. The slice
	// views the table's reusable scratch and stays valid only until the
	// table's next Lookup/LookupBinary.
	Clusters []int
	Found    bool
}

// Lookup searches for the entry translating vpn starting at the predicted
// slot. The search fetches the predicted cluster first and then expands
// outward cluster by cluster, up to maxExtra additional fetches — the
// bounded search of §4.3.3 with C_err = maxExtra.
func (t *Table) Lookup(pred int, vpn addr.VPN, maxExtra int) LookupResult {
	p := t.clamp(pred)
	res := LookupResult{Clusters: t.clusterScratch[:0]}
	// The defer and search closures below do not escape Lookup: the
	// compiler stack-allocates them (TestStepZeroAllocs is the dynamic
	// backstop).
	defer func() { t.clusterScratch = res.Clusters }() //lint:allow hotalloc non-escaping closure, stack-allocated
	startCluster := ClusterOf(p)
	lastCluster := ClusterOf(len(t.slots) - 1)

	// checkCluster scans one cluster; it also reports the range of valid
	// tags seen so the search can prune a direction: the table is kept in
	// approximately sorted order (monotone build placement, nearest-slot
	// inserts within InsertReach), so a cluster whose smallest tag already
	// exceeds the target means the target cannot live above it.
	//lint:allow hotalloc non-escaping closure, stack-allocated
	checkCluster := func(c int) (e pte.Entry, slot int, found bool, minTag, maxTag addr.VPN, any bool) {
		lo := c * pte.ClusterSlots
		hi := lo + pte.ClusterSlots
		if hi > len(t.slots) {
			hi = len(t.slots)
		}
		for i := lo; i < hi; i++ {
			s := t.slots[i]
			if s.Matches(vpn) {
				return s.Entry, i, true, 0, 0, true
			}
			if s.Valid() {
				if !any || s.Tag < minTag {
					minTag = s.Tag
				}
				if !any || s.Tag > maxTag {
					maxTag = s.Tag
				}
				any = true
			}
		}
		return 0, 0, false, minTag, maxTag, any
	}

	// Displacement from inserts is bounded by the insert reach (≈ one
	// cluster), so directional evidence from a cluster applies to clusters
	// at least two away. Pruning is a hardware fast-path heuristic: it is
	// only applied to tightly bounded searches (the C_err walk); wide
	// software-assisted searches stay exhaustive, preserving correctness
	// even if a pathological table loses approximate sortedness.
	prune := maxExtra <= 8
	searchDown, searchUp := true, true
	tag2M := addr.AlignDown(vpn, addr.Page2M)
	//lint:allow hotalloc non-escaping closure, stack-allocated
	visit := func(c, dist int) bool {
		res.Accesses++
		res.Clusters = append(res.Clusters, c)
		e, slot, ok, minTag, maxTag, any := checkCluster(c)
		if ok {
			res.Entry, res.Slot, res.Found = e, slot, true
			return true
		}
		if prune && any && dist >= 1 {
			// Tag comparisons use the 2 MB-aligned target so a huge-page
			// entry below the lookup VPN is never pruned away.
			if minTag > vpn {
				searchUp = false
			}
			if maxTag < tag2M {
				searchDown = false
			}
		}
		return false
	}
	res.Accesses = 0
	if visit(startCluster, 0) {
		return res
	}
	// Expand outward, downward side first: model predictions for VPNs
	// inside a huge page floor to (or just above) the huge page's slot, so
	// the round-down direction finds them soonest (paper §4.4).
	for d := 1; res.Accesses <= maxExtra+1; d++ {
		progressed := false
		if c := startCluster - d; searchDown && c >= 0 && res.Accesses <= maxExtra {
			progressed = true
			if visit(c, d) {
				return res
			}
		}
		if c := startCluster + d; searchUp && c <= lastCluster && res.Accesses <= maxExtra {
			progressed = true
			if visit(c, d) {
				return res
			}
		}
		if !progressed {
			break
		}
	}
	return res
}

// LookupBinary resolves a lookup by binary search over the approximately
// sorted table — the paper's §4.3.3 miss path ("a binary search is
// performed within the min/max error range"). Two passes run: one
// navigating to the lookup VPN itself (4 KB entries) and one to its 2 MB
// base (huge-page entries). Navigation compares each probed cluster's tag
// range against the pass target; a short linear sweep finishes. Cost is
// O(log(slots)) cluster fetches, all counted.
func (t *Table) LookupBinary(pred int, vpn addr.VPN) LookupResult {
	res := LookupResult{Clusters: t.clusterScratch[:0]}
	// As in Lookup: the defer and search closures are non-escaping and
	// stack-allocated.
	defer func() { t.clusterScratch = res.Clusters }() //lint:allow hotalloc non-escaping closure, stack-allocated
	if len(t.slots) == 0 {
		return res
	}
	last := ClusterOf(len(t.slots) - 1)
	home := ClusterOf(t.clamp(pred))

	//lint:allow hotalloc non-escaping closure, stack-allocated
	probe := func(c int, target addr.VPN) (found, below, above, empty bool) {
		res.Accesses++
		res.Clusters = append(res.Clusters, c)
		first := c * pte.ClusterSlots
		lastSlot := first + pte.ClusterSlots
		if lastSlot > len(t.slots) {
			lastSlot = len(t.slots)
		}
		var minTag, maxTag addr.VPN
		any := false
		for i := first; i < lastSlot; i++ {
			s := t.slots[i]
			if s.Matches(vpn) {
				res.Entry, res.Slot, res.Found = s.Entry, i, true
				return true, false, false, false
			}
			if s.Valid() {
				if !any || s.Tag < minTag {
					minTag = s.Tag
				}
				if !any || s.Tag > maxTag {
					maxTag = s.Tag
				}
				any = true
			}
		}
		if !any {
			return false, false, false, true
		}
		return false, maxTag < target, minTag > target, false
	}

	//lint:allow hotalloc non-escaping closure, stack-allocated
	pass := func(target addr.VPN) bool {
		lo, hi := 0, last
		for hi-lo > 2 && res.Accesses < 64 {
			mid := (lo + hi) / 2
			found, below, above, empty := probe(mid, target)
			if empty {
				// A fully empty cluster carries no ordering information
				// (gapped arrays keep slack): consult alternating
				// neighbours until one has tags; if the whole
				// neighbourhood is a gap, follow the model's prediction —
				// the data for this key lies on the prediction's side.
				decided := false
				for k := 1; k <= 3 && res.Accesses < 60; k++ {
					for _, c := range [...]int{mid + k, mid - k} {
						if c < lo || c > hi {
							continue
						}
						f2, b2, a2, e2 := probe(c, target)
						if f2 {
							return true
						}
						if e2 {
							continue
						}
						decided = true
						if b2 {
							lo = c + 1
						} else if a2 {
							hi = c - 1
						} else {
							lo, hi = c-1, c+1
							if lo < 0 {
								lo = 0
							}
						}
						break
					}
					if decided {
						break
					}
				}
				if !decided {
					if home <= mid {
						hi = mid - 1
					} else {
						lo = mid + 1
					}
				}
				continue
			}
			switch {
			case found:
				return true
			case below:
				lo = mid + 1
			case above:
				hi = mid - 1
			default:
				// Straddling cluster without a match: the entry, if
				// present, was displaced within insert reach of here.
				lo, hi = mid-1, mid+1
				if lo < 0 {
					lo = 0
				}
			}
		}
		// Final sweep with a one-cluster margin: bounded insert
		// displacement can shift an entry across a cluster boundary.
		for c := lo - 1; c <= hi+1 && c <= last && res.Accesses < 96; c++ {
			if c < 0 {
				continue
			}
			if found, _, _, _ := probe(c, target); found {
				return true
			}
		}
		return false
	}

	if pass(vpn) {
		return res
	}
	if base := addr.AlignDown(vpn, addr.Page2M); base != vpn {
		pass(base)
	}
	return res
}

// Unsorted reports that a pathological bulk placement wrapped around the
// table, voiding the approximate-sortedness the binary miss path relies
// on; callers fall back to exhaustive search.
func (t *Table) Unsorted() bool { return t.unsorted }

// Erase clears the slot holding vpn near the predicted position. LVM keeps
// the gap open for reuse (paper §5.2 "Free"); only the entry is cleared.
func (t *Table) Erase(pred int, vpn addr.VPN, reach int) bool {
	p := t.clamp(pred)
	for d := 0; d <= reach; d++ {
		for _, i := range []int{p + d, p - d} {
			if i >= 0 && i < len(t.slots) && t.slots[i].Matches(vpn) {
				t.slots[i] = pte.Tagged{}
				t.used--
				return true
			}
		}
	}
	return false
}

// Expand grows the table by at least extraSlots slots. It first attempts to
// extend the last extent in place (the physically adjacent buddy block);
// failing that it chains a new extent sized to the largest available
// contiguity.
func (t *Table) Expand(extraSlots, maxOrder int) error {
	if extraSlots < 1 {
		return nil
	}
	last := t.extents[len(t.extents)-1]

	// In-place growth: allocate the buddy block physically adjacent to the
	// last extent at the same order, keeping the table one contiguous run.
	adjacent := last.base + addr.PPN(phys.BlockBytes(last.order)>>addr.PageShift)
	if err := t.mem.AllocExact(adjacent, last.order); err == nil {
		grown := int(phys.BlockBytes(last.order) / SlotBytes)
		t.extents = append(t.extents, extent{
			base:  adjacent,
			order: last.order,
			slots: grown,
			start: len(t.slots),
		})
		t.slots = append(t.slots, make([]pte.Tagged, grown)...)
		if grown >= extraSlots {
			return nil
		}
		extraSlots -= grown
	}

	// Chained extent.
	bytes := uint64(extraSlots) * SlotBytes
	order := phys.OrderForBytes(bytes)
	if order > maxOrder {
		order = maxOrder
	}
	base, err := t.mem.Alloc(order)
	if err != nil {
		return fmt.Errorf("gapped: expanding table: %w", err)
	}
	capSlots := int(phys.BlockBytes(order) / SlotBytes)
	t.extents = append(t.extents, extent{
		base:  base,
		order: order,
		slots: capSlots,
		start: len(t.slots),
	})
	t.slots = append(t.slots, make([]pte.Tagged, capSlots)...)
	return nil
}

// Release returns all physical memory backing the table.
func (t *Table) Release() {
	for _, e := range t.extents {
		t.mem.Free(e.base, e.order)
	}
	t.extents = nil
	t.slots = nil
	t.used = 0
}
