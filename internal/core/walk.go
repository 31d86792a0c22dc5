package core

import (
	"lvm/internal/addr"
	"lvm/internal/gapped"
	"lvm/internal/pte"
)

// NodeRef identifies one index node touched during a walk. Level and Offset
// key the LVM walk cache (plus the ASID, added by the MMU); PA is the
// memory location fetched on an LWC miss.
type NodeRef struct {
	Level  int
	Offset int
	PA     addr.PA
}

// WalkResult is the full trace of one hardware page walk (paper Fig. 4(c)):
// the nodes traversed and the PTE cluster fetches performed. The simulator
// charges LWC lookups for Nodes and cache-hierarchy requests for PTEPAs.
type WalkResult struct {
	Entry pte.Entry
	Found bool
	// Nodes lists the index nodes traversed root-to-leaf.
	Nodes []NodeRef
	// PTEAccesses is the number of 64-byte PTE cluster fetches (1 in the
	// collision-free case).
	PTEAccesses int
	// PTEPAs are the physical addresses of the fetched clusters.
	PTEPAs []addr.PA
	// Collided reports that the translation was not in the predicted
	// cluster (§7.3's collision definition for lookups).
	Collided bool
	// Overflowed reports that the C_err bound was insufficient and the
	// extended search ran (counted, should be ≈0).
	Overflowed bool
}

// Walk translates a VPN exactly as the hardware page walker does: traverse
// internal models root-to-leaf with fixed-point multiply-adds, then probe
// the leaf's gapped page table in stages:
//
//  1. the predicted cluster for the VPN (the single-access common case);
//  2. the predicted cluster for the 2 MB-aligned VPN — interior sub-pages
//     of a huge page predict between keys, but the huge page's own
//     prediction is exact (the round-down of §4.4);
//  3. the C_err-bounded outward searches (§4.3.3) for both;
//  4. the wide software-assisted search (counted as an overflow).
//
// Internal-node granules are whole 2 MB multiples, so a huge page's
// interior always routes to the same leaf as its base.
//
// The returned Nodes and PTEPAs slices view the Index's reusable walk
// scratch and stay valid only until the next Walk.
func (ix *Index) Walk(v addr.VPN) WalkResult {
	var res WalkResult
	ix.walkNodes = ix.walkNodes[:0]
	ix.walkPTEPAs = ix.walkPTEPAs[:0]
	ix.walkSeen = ix.walkSeen[:0]
	ix.walkInto(&res, v, true)
	res.Nodes = ix.walkNodes
	res.PTEPAs = ix.walkPTEPAs
	return res
}

// seenCluster reports whether cluster c was already probed by the walk
// invocation whose seen region starts at base (the 1 GB retry runs as a
// nested invocation with its own region, like the recursive formulation's
// per-call set).
func (ix *Index) seenCluster(base, c int) bool {
	for _, s := range ix.walkSeen[base:] {
		if s == c {
			return true
		}
	}
	return false
}

// walkInto is Walk's engine: it appends node and PTE-cluster refs onto the
// Index's shared scratch buffers and fills res's scalar fields. retry1G
// guards the nested gigabyte-aligned retry (the nested walk never needs
// one itself: its VPN is already 1 GB-aligned).
func (ix *Index) walkInto(res *WalkResult, v addr.VPN, retry1G bool) {
	if ix.root == nil {
		return
	}
	// Traverse internal nodes once.
	n := ix.root
	for !n.isLeaf() {
		ix.walkNodes = append(ix.walkNodes, NodeRef{n.level, n.offset, ix.NodePA(n.level, n.offset)})
		n = n.child(v)
	}
	ix.walkNodes = append(ix.walkNodes, NodeRef{n.level, n.offset, ix.NodePA(n.level, n.offset)})
	if n.table == nil {
		// Empty leaf: nothing is mapped in this range; the walker reports
		// not-present without a PTE fetch (a null table descriptor).
		return
	}

	base := addr.AlignDown(v, addr.Page2M)
	type stage struct {
		target addr.VPN
		budget int
	}
	var stages [4]stage
	nstages := 0
	//lint:allow hotalloc non-escaping closure over a stack array, stack-allocated; TestStepZeroAllocs backstop
	push := func(s stage) { stages[nstages] = s; nstages++ }
	push(stage{v, 0})
	if base != v {
		push(stage{base, 0})
	}
	push(stage{v, ix.params.CErr})
	if base != v {
		push(stage{base, ix.params.CErr})
	}
	seenBase := len(ix.walkSeen)
	for _, st := range stages[:nstages] {
		pred := int(n.predict(st.target))
		if st.budget == 0 && ix.seenCluster(seenBase, gapped.ClusterOf(clampPred(pred, n.table.Slots()))) {
			continue
		}
		lr := n.table.Lookup(pred, v, st.budget)
		for _, c := range lr.Clusters {
			ix.walkSeen = append(ix.walkSeen, c)
			ix.walkPTEPAs = append(ix.walkPTEPAs, n.table.ClusterPA(c))
		}
		res.PTEAccesses += lr.Accesses
		if lr.Found {
			res.Found = true
			res.Entry = lr.Entry
			res.Collided = res.PTEAccesses > 1
			return
		}
	}
	// Bounded binary search over the approximately sorted table — the
	// §4.3.3 miss path. Counted as an overflow of the fast path.
	lr := n.table.LookupBinary(int(n.predict(v)), v)
	res.PTEAccesses += lr.Accesses
	for _, c := range lr.Clusters {
		ix.walkPTEPAs = append(ix.walkPTEPAs, n.table.ClusterPA(c))
	}
	if !lr.Found {
		// The binary navigation is a heuristic over approximately sorted
		// content (long empty-cluster runs can mislead it); the exhaustive
		// software search is the correctness backstop (counted).
		lr = n.table.Lookup(int(n.predict(v)), v, n.table.Slots()/pte.ClusterSlots+1)
		res.PTEAccesses += lr.Accesses
		for _, c := range lr.Clusters {
			ix.walkPTEPAs = append(ix.walkPTEPAs, n.table.ClusterPA(c))
		}
	}
	if lr.Found {
		ix.stats.SearchOverflows++
		res.Found = true
		res.Entry = lr.Entry
		res.Collided = true
		res.Overflowed = true
		return
	}
	// 1 GB pages: a final retry with the gigabyte-aligned VPN, which may
	// route to a different leaf (1 GB granules are not boundary-protected
	// the way 2 MB granules are). Its node and PTE refs land on the shared
	// scratch in traversal order; only a 1 GB hit propagates the entry.
	if b1 := addr.AlignDown(v, addr.Page1G); retry1G && b1 != v && b1 != base {
		var r1 WalkResult
		ix.walkInto(&r1, b1, false)
		res.PTEAccesses += r1.PTEAccesses
		if r1.Found && r1.Entry.Size() == addr.Page1G {
			res.Found = true
			res.Entry = r1.Entry
			res.Collided = true
		}
	}
}

func clampPred(p, slots int) int {
	if p < 0 {
		return 0
	}
	if p >= slots {
		return slots - 1
	}
	return p
}

// Lookup is the software-walk convenience used by the OS (paper §5.2): it
// translates a full virtual address to a physical address.
func (ix *Index) Lookup(va addr.VA) (addr.PA, bool) {
	r := ix.Walk(addr.VPNOf(va))
	if !r.Found {
		return 0, false
	}
	return addr.Translate(va, r.Entry.PPN(), r.Entry.Size()), true
}

// leafFor returns the leaf node a VPN routes to (clamped walk).
func (ix *Index) leafFor(v addr.VPN) *node {
	n := ix.root
	for n != nil && !n.isLeaf() {
		n = n.child(v)
	}
	return n
}

// SetFlags performs the OS software-walk PTE modification path (accessed /
// dirty / permission bits) without moving the entry (paper §5.2).
func (ix *Index) SetFlags(v addr.VPN, set, clear pte.Entry) bool {
	n := ix.leafFor(v)
	if n == nil || n.table == nil {
		return false
	}
	pred := int(n.predict(v))
	lr := n.table.Lookup(pred, v, n.table.Slots()/pte.ClusterSlots+1)
	if !lr.Found {
		return false
	}
	e := lr.Entry.WithFlags(set).ClearFlags(clear)
	n.table.Set(lr.Slot, pte.Tagged{Tag: n.table.Get(lr.Slot).Tag, Entry: e})
	return true
}
