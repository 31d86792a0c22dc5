package core

import (
	"errors"
	"fmt"
	"sort"

	"lvm/internal/addr"
	"lvm/internal/fixed"
	"lvm/internal/gapped"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

// Mapping is one virtual-to-physical translation handed to the index. For
// huge pages, VPN is the first 4 KB sub-page of the huge page (paper §4.4)
// and Entry's size bits identify the granularity.
type Mapping struct {
	VPN   addr.VPN
	Entry pte.Entry
}

// ErrEmpty is returned when building an index with no mappings.
var ErrEmpty = errors.New("core: no mappings")

// node is one 16-byte model in the hierarchy. Internal nodes predict the
// offset of a child at the next level; leaf nodes predict a slot in their
// gapped page table.
type node struct {
	level  int // 1-based depth; the root is level 1
	offset int // position in the contiguous per-level node array

	slope     fixed.Q
	intercept fixed.Q

	// Responsibility range [loKey, hiKey], in VPN units, inclusive.
	loKey, hiKey uint64

	// Internal node state.
	children []*node

	// Leaf node state. A leaf with a nil table maps nothing (an empty
	// child range); its table is created lazily on first insert.
	leaf  bool
	table *gapped.Table
	// maxDisp is the largest displacement (in slots) between a key's
	// predicted and actual slot observed so far, for diagnostics.
	maxDisp int
	// residual is the scaled worst-case regression residual, in slots,
	// observed at training time (the §4.3.3 error bound).
	residual int
}

func (n *node) isLeaf() bool { return n.leaf }

// predict evaluates the node's model in fixed point, exactly as the
// hardware walker does: floor(slope·vpn + intercept).
func (n *node) predict(v addr.VPN) int64 {
	return fixed.MulAdd(n.slope, fixed.FromInt(int64(v)), n.intercept).Floor()
}

// child is one step of the descent: the child an internal node's model
// routes v to, clamped to the node's children.
func (n *node) child(v addr.VPN) *node {
	idx := int(n.predict(v)) - n.children[0].offset
	if idx < 0 {
		idx = 0
	}
	if idx >= len(n.children) {
		idx = len(n.children) - 1
	}
	return n.children[idx]
}

// appendLive appends the live translations in a leaf's table to ms.
func (n *node) appendLive(ms []Mapping) []Mapping {
	if n.table == nil {
		return ms
	}
	for i := 0; i < n.table.Slots(); i++ {
		if s := n.table.Get(i); s.Valid() {
			ms = append(ms, Mapping{VPN: s.Tag, Entry: s.Entry})
		}
	}
	return ms
}

// Index is a per-process LVM learned index.
type Index struct {
	mem    *phys.Memory
	params Params

	root   *node
	levels [][]*node // levels[d-1] holds all nodes of depth d, contiguous

	// levelBase[d-1] is the physical page backing the level-d node array;
	// node PAs are levelBase + offset·16.
	levelBase  []addr.PPN
	levelOrder []int

	// Key range currently covered.
	loKey, hiKey uint64

	// Reusable walk scratch: Walk's returned Nodes/PTEPAs slices view
	// walkNodes/walkPTEPAs and stay valid until the next Walk; walkSeen
	// holds the probed-cluster dedup set (regioned per nested invocation).
	walkNodes  []NodeRef
	walkPTEPAs []addr.PA
	walkSeen   []int

	stats IndexStats
}

// IndexStats accumulates the maintenance statistics reported in §7.3.
type IndexStats struct {
	// Retrains counts leaf-local retraining events (these are the only
	// events that require an LWC flush of the affected node).
	Retrains uint64
	// Rebuilds counts full index rebuilds.
	Rebuilds uint64
	// InsertCollisions counts inserts whose predicted slot was occupied.
	InsertCollisions uint64
	// Inserts counts all successful inserts.
	Inserts uint64
	// EdgeExpansions counts out-of-bounds-near-edge batch extensions.
	EdgeExpansions uint64
	// Rescales counts gapped-table expansions.
	Rescales uint64
	// LazyTrains counts deferred first-training of empty leaves (not
	// retrains: no previously trained model existed).
	LazyTrains uint64
	// SearchOverflows counts walks that exceeded the C_err bound and
	// needed the extended software-assisted search (should be ~0).
	SearchOverflows uint64
	// PeakIndexBytes tracks the largest index size seen, including during
	// initial training (Table 2 discussion).
	PeakIndexBytes int
}

// Build trains a new index over the given mappings (paper §4.3.1). The
// mappings need not be sorted; duplicates (same VPN) keep the last entry.
// On error every page the build allocated is freed again.
func Build(mem *phys.Memory, mappings []Mapping, p Params) (*Index, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(mappings) == 0 {
		return nil, ErrEmpty
	}
	ms := normalize(mappings)
	ix := &Index{mem: mem, params: p}
	if err := ix.construct(ms); err != nil {
		ix.Release()
		return nil, err
	}
	return ix, nil
}

// normalize sorts by VPN and deduplicates keeping the last mapping.
func normalize(mappings []Mapping) []Mapping {
	ms := append([]Mapping(nil), mappings...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].VPN < ms[j].VPN })
	out := ms[:0]
	for _, m := range ms {
		if len(out) > 0 && out[len(out)-1].VPN == m.VPN {
			out[len(out)-1] = m
			continue
		}
		out = append(out, m)
	}
	return out
}

// construct builds the tree, assigns per-level offsets, and allocates the
// physical node arrays. Called by Build and by full rebuilds.
func (ix *Index) construct(sorted []Mapping) error {
	b := &builder{ix: ix, p: ix.params}
	root, err := b.buildNode(sorted, vpnsOf(sorted), uint64(sorted[0].VPN), uint64(sorted[len(sorted)-1].VPN), 1)
	if err != nil {
		return err
	}
	ix.root = root
	ix.loKey = uint64(sorted[0].VPN)
	ix.hiKey = uint64(sorted[len(sorted)-1].VPN)
	ix.assignOffsets()
	if err := ix.allocLevelStorage(); err != nil {
		return err
	}
	if s := ix.SizeBytes(); s > ix.stats.PeakIndexBytes {
		ix.stats.PeakIndexBytes = s
	}
	return nil
}

// assignOffsets lays out nodes contiguously per level in BFS order and
// rewrites internal intercepts so each model outputs the absolute offset of
// its children within the next level's array (paper §4.2.1).
func (ix *Index) assignOffsets() {
	ix.levels = nil
	frontier := []*node{ix.root}
	for level := 1; len(frontier) > 0; level++ {
		var next []*node
		for i, n := range frontier {
			n.level = level
			n.offset = i
		}
		for _, n := range frontier {
			if n.isLeaf() {
				continue
			}
			first := len(next)
			next = append(next, n.children...)
			// The model was trained to output relative child index
			// 0..n-1; shift to the absolute offset of the first child.
			n.intercept = n.intercept.Add(fixed.FromInt(int64(first)))
		}
		ix.levels = append(ix.levels, frontier)
		frontier = next
	}
}

// allocLevelStorage allocates physical memory for the per-level contiguous
// node arrays. Nodes are tiny, so these are the small allocations §4.2.1
// promises.
func (ix *Index) allocLevelStorage() error {
	// Release previous storage (on rebuild).
	for i, base := range ix.levelBase {
		ix.mem.Free(base, ix.levelOrder[i])
	}
	ix.levelBase = ix.levelBase[:0]
	ix.levelOrder = ix.levelOrder[:0]
	for _, level := range ix.levels {
		order := phys.OrderForBytes(uint64(len(level)) * NodeBytes)
		base, err := ix.mem.Alloc(order)
		if err != nil {
			return fmt.Errorf("core: allocating level storage: %w", err)
		}
		ix.levelBase = append(ix.levelBase, base)
		ix.levelOrder = append(ix.levelOrder, order)
	}
	return nil
}

// NodePA returns the physical address of the node at (level, offset); the
// walker fetches the 64-byte line containing it on an LWC miss.
func (ix *Index) NodePA(level, offset int) addr.PA {
	return addr.SlotPA(ix.levelBase[level-1], uint64(offset), NodeBytes)
}

// Depth returns the number of node levels.
func (ix *Index) Depth() int { return len(ix.levels) }

// NodeCount returns the total number of nodes.
func (ix *Index) NodeCount() int {
	total := 0
	for _, l := range ix.levels {
		total += len(l)
	}
	return total
}

// SizeBytes returns the learned index size: 16 bytes per node (Table 2's
// metric). Gapped page tables are not index — they are the page table
// proper.
func (ix *Index) SizeBytes() int { return ix.NodeCount() * NodeBytes }

// LeafCount returns the number of leaf nodes (== gapped page tables).
func (ix *Index) LeafCount() int {
	count := 0
	for _, l := range ix.levels {
		for _, n := range l {
			if n.isLeaf() {
				count++
			}
		}
	}
	return count
}

// MappedPages returns the number of live translations.
func (ix *Index) MappedPages() int {
	total := 0
	for _, l := range ix.levels {
		for _, n := range l {
			if n.isLeaf() && n.table != nil {
				total += n.table.Used()
			}
		}
	}
	return total
}

// TableFootprintBytes returns the physical memory consumed by all gapped
// page tables, including gaps — the overhead metric of §7.3.
func (ix *Index) TableFootprintBytes() uint64 {
	var total uint64
	for _, l := range ix.levels {
		for _, n := range l {
			if n.isLeaf() && n.table != nil {
				total += n.table.FootprintBytes()
			}
		}
	}
	return total
}

// Stats returns the accumulated maintenance statistics.
func (ix *Index) Stats() IndexStats { return ix.stats }

// Release frees all physical memory held by the index (tables and node
// arrays).
func (ix *Index) Release() {
	for _, l := range ix.levels {
		for _, n := range l {
			if n.isLeaf() && n.table != nil {
				n.table.Release()
			}
		}
	}
	for i, base := range ix.levelBase {
		ix.mem.Free(base, ix.levelOrder[i])
	}
	ix.levels = nil
	ix.levelBase = nil
	ix.levelOrder = nil
	ix.root = nil
}

// collectMappings gathers every live translation from the leaf tables, in
// VPN order, for rebuilds.
func (ix *Index) collectMappings() []Mapping {
	var out []Mapping
	var visit func(n *node)
	visit = func(n *node) {
		if n.isLeaf() {
			out = n.appendLive(out)
			return
		}
		for _, c := range n.children {
			visit(c)
		}
	}
	if ix.root != nil {
		visit(ix.root)
	}
	return normalize(out)
}
