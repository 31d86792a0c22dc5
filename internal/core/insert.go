package core

import (
	"errors"
	"fmt"

	"lvm/internal/addr"
	"lvm/internal/fixed"
	"lvm/internal/gapped"
	"lvm/internal/pte"
)

// Insert adds one translation to the index, choosing among the paths of
// §4.3.4: within-bounds insert, out-of-bounds insert close to the edge
// (batched extension + rescaling, no retraining), or — for far out-of-bounds
// inserts — a full rebuild. A mapping whose VPN is not aligned to its
// page size is refused: Walk probes a huge page at its aligned base, so
// such a mapping could never translate.
func (ix *Index) Insert(m Mapping) error {
	if ix.root == nil {
		return errors.New("core: insert into released index")
	}
	if size := m.Entry.Size(); !addr.Aligned(m.VPN, size) {
		return fmt.Errorf("core: insert of %#x is not %s-aligned", uint64(m.VPN), size)
	}
	v := uint64(m.VPN)
	var err error
	switch {
	case v >= ix.loKey && v <= ix.hiKey:
		err = ix.insertWithin(m)
	case v > ix.hiKey && v-ix.hiKey <= ix.params.EdgeWindow:
		err = ix.insertEdgeHigh(m)
	case v < ix.loKey && ix.loKey-v <= ix.params.EdgeWindow:
		err = ix.insertEdgeLow(m)
	default:
		err = ix.rebuildWith([]Mapping{m})
	}
	if err == nil {
		ix.stats.Inserts++
	}
	return err
}

// insertWithin handles a key inside the current bounds: the model predicts
// the slot, the gapped array almost always has room, and only on a local
// failure is the leaf retrained (paper §4.3.4).
func (ix *Index) insertWithin(m Mapping) error {
	leaf := ix.leafFor(m.VPN)
	if leaf.table == nil {
		return ix.lazyTrainLeaf(leaf, m)
	}
	pred := int(leaf.predict(m.VPN))
	// Remap of an already-present key: update in place so the table never
	// holds two entries for one VPN (a later rebuild could otherwise
	// resurrect the stale one). This existence check must be sound, so its
	// window is an access budget covering the leaf's largest observed
	// displacement in BOTH search directions (the outward search spends two
	// fetches per cluster of distance), with a floor that keeps Lookup's
	// directional pruning — a hardware fast-path heuristic that can skip
	// the matching cluster — disabled for this software-side check. An
	// unsorted table voids displacement bounds entirely: cover it whole.
	window := 2*(leaf.maxDisp/pte.ClusterSlots+1) + ix.params.CErr + 1
	if leaf.table.Unsorted() {
		if cover := leaf.table.Slots()/pte.ClusterSlots + 1; cover > window {
			window = cover
		}
	}
	if window < 9 {
		window = 9
	}
	if lr := leaf.table.Lookup(pred, m.VPN, window); lr.Found {
		leaf.table.Set(lr.Slot, pte.Tagged{Tag: leaf.table.Get(lr.Slot).Tag, Entry: m.Entry})
		return nil
	}
	slot, collided, err := leaf.table.Insert(pred, m.VPN, m.Entry, ix.params.InsertReach)
	if err == nil {
		if collided {
			ix.stats.InsertCollisions++
		}
		if d := abs(slot - pred); d > leaf.maxDisp {
			leaf.maxDisp = d
		}
		return nil
	}
	// A prediction at or beyond the table's edge means a region is growing
	// into a gap inside the index bounds: apply the rescaling technique
	// leaf-locally (§4.3.4) — expand the table, keep the model, and batch
	// the expansion by the minimum insertion distance so the next pages
	// land in pre-expanded slots.
	if pred+ix.params.InsertReach >= leaf.table.Slots() && pred < leaf.table.Slots()+(1<<26) {
		batch := int(leaf.slope.MulInt(int64(ix.params.MinInsertDistance))) + 1
		need := pred + batch + ix.params.InsertReach + pte.ClusterSlots + 1 - leaf.table.Slots()
		if leaf.table.Expand(need, ix.availOrder()) == nil {
			ix.stats.Rescales++
			slot, collided, err = leaf.table.Insert(pred, m.VPN, m.Entry, ix.params.InsertReach)
			if err == nil {
				if collided {
					ix.stats.InsertCollisions++
				}
				if d := abs(slot - pred); d > leaf.maxDisp {
					leaf.maxDisp = d
				}
				return nil
			}
		}
	}
	// The slot neighbourhood is full: retrain only this leaf (local, no
	// LWC impact beyond one entry).
	if err := ix.retrainLeaf(leaf, []Mapping{m}); err == nil {
		return nil
	}
	// Local retraining failed (the leaf's key space got too complex for
	// one model): rebuild the whole index — cheap and rare (§4.3.4).
	return ix.rebuildWith([]Mapping{m})
}

// insertEdgeHigh handles the common case of address-space growth: the key
// range is extended by at least MinInsertDistance (batching future inserts)
// and the rightmost leaf's table is rescaled — the model is NOT retrained,
// so existing PTEs stay put and the LWC stays valid (paper §4.3.4, Fig. 5).
func (ix *Index) insertEdgeHigh(m Mapping) error {
	v := uint64(m.VPN)
	dist := ix.params.MinInsertDistance
	if dist == 0 {
		dist = 1
	}
	steps := (v - ix.hiKey + dist - 1) / dist
	newHi := ix.hiKey + steps*dist

	leaf := ix.leafFor(m.VPN)
	if leaf.table == nil {
		if err := ix.lazyTrainLeaf(leaf, m); err != nil {
			return ix.rebuildWith([]Mapping{m})
		}
		ix.extendHighBookkeeping(newHi)
		ix.stats.EdgeExpansions++
		return nil
	}
	// Grow the table to cover predictions up to the new edge.
	needSlots := int(leaf.predict(addr.VPN(newHi))) + ix.params.InsertReach + pte.ClusterSlots + 1
	if needSlots > leaf.table.Slots() {
		if err := leaf.table.Expand(needSlots-leaf.table.Slots(), ix.availOrder()); err != nil {
			return fmt.Errorf("core: rescaling edge leaf: %w", err)
		}
		ix.stats.Rescales++
	}
	ix.stats.EdgeExpansions++
	ix.extendHighBookkeeping(newHi)

	pred := int(leaf.predict(m.VPN))
	slot, collided, err := leaf.table.Insert(pred, m.VPN, m.Entry, ix.params.InsertReach)
	if err != nil {
		// Extrapolation failed to leave room; fall back to retraining the
		// leaf, then to a rebuild.
		if err := ix.retrainLeaf(leaf, []Mapping{m}); err == nil {
			return nil
		}
		return ix.rebuildWith([]Mapping{m})
	}
	if collided {
		ix.stats.InsertCollisions++
	}
	if d := abs(slot - pred); d > leaf.maxDisp {
		leaf.maxDisp = d
	}
	return nil
}

// lazyTrainLeaf gives a previously empty leaf its first model and table.
// Regions grow contiguously in the common case (§4.3.4), so the model
// assumes density 1 (slope = ga_scale anchored at the first key) and the
// table is sized for up to MinInsertDistance pages of growth; subsequent
// sequential inserts then land in pre-allocated gaps with no retraining.
func (ix *Index) lazyTrainLeaf(leaf *node, m Mapping) error {
	slope := fixed.FromFloat(ix.params.GAScale)
	leaf.slope = slope
	leaf.intercept = slope.Mul(fixed.FromInt(int64(m.VPN))).Neg()
	span := leaf.hiKey - leaf.loKey + 1
	if d := ix.params.MinInsertDistance; d > 0 && span > d {
		span = d
	}
	// Size the table with the same quantized slope the walker predicts
	// with, so every reachable prediction lands inside the table.
	slots := int(slope.MulInt(int64(span))) + pte.ClusterSlots + 1
	table, err := gapped.New(ix.mem, slots, ix.availOrder())
	if err != nil {
		return err
	}
	leaf.table = table
	leaf.residual = 0
	leaf.maxDisp = 0
	ix.stats.LazyTrains++
	pred := int(leaf.predict(m.VPN))
	if _, _, err := table.Insert(pred, m.VPN, m.Entry, ix.params.InsertReach); err != nil {
		return err
	}
	return nil
}

// extendHighBookkeeping records the new upper key bound along the rightmost
// path of the tree.
func (ix *Index) extendHighBookkeeping(newHi uint64) {
	if ix.hiKey < newHi {
		ix.hiKey = newHi
	}
	for n := ix.root; ; {
		if n.hiKey < newHi {
			n.hiKey = newHi
		}
		if n.isLeaf() {
			break
		}
		n = n.children[len(n.children)-1]
	}
}

// insertEdgeLow handles growth below the current range (e.g. a stack
// growing down). Gapped tables cannot grow toward negative slots, so the
// leftmost leaf is retrained with the new key — a local operation.
func (ix *Index) insertEdgeLow(m Mapping) error {
	leaf := ix.leafFor(m.VPN)
	if err := ix.retrainLeaf(leaf, []Mapping{m}); err != nil {
		return ix.rebuildWith([]Mapping{m})
	}
	v := uint64(m.VPN)
	ix.loKey = v
	for n := ix.root; ; {
		if n.loKey > v {
			n.loKey = v
		}
		if n.isLeaf() {
			break
		}
		n = n.children[0]
	}
	return nil
}

// retrainLeaf refits one leaf's model over its live keys plus extras and
// re-places the entries in a fresh gapped table. This is the only operation
// that invalidates an LWC entry (paper §5.2 "LWC Flushes"); the caller's
// MMU model observes it via Stats().Retrains.
func (ix *Index) retrainLeaf(leaf *node, extras []Mapping) error {
	var ms []Mapping
	if leaf.table != nil {
		for i := 0; i < leaf.table.Slots(); i++ {
			if s := leaf.table.Get(i); s.Valid() {
				ms = append(ms, Mapping{VPN: s.Tag, Entry: s.Entry})
			}
		}
	}
	ms = normalize(append(ms, extras...))
	if len(ms) == 0 {
		return nil
	}
	lo, hi := leaf.loKey, leaf.hiKey
	if k := uint64(ms[0].VPN); k < lo {
		lo = k
	}
	if k := uint64(ms[len(ms)-1].VPN); k > hi {
		hi = k
	}
	b := &builder{ix: ix, p: ix.params}
	keys := vpnsOf(ms)
	fresh, err := b.makeLeaf(ms, keys, lo, hi, false)
	if err != nil {
		// The leaf's key space no longer fits one model within the bound;
		// fall back to relaxed (monotone, perfectly sorted) placement —
		// lookups resolve through the binary miss path.
		if fresh, err = b.makeLeaf(ms, keys, lo, hi, true); err != nil {
			return err
		}
	}
	// Swap the new model and table into the existing node, preserving its
	// identity (level, offset) so the rest of the hierarchy is untouched.
	if leaf.table != nil {
		leaf.table.Release()
	}
	leaf.slope = fresh.slope
	leaf.intercept = fresh.intercept
	leaf.table = fresh.table
	leaf.maxDisp = fresh.maxDisp
	leaf.loKey = lo
	leaf.hiKey = hi
	ix.stats.Retrains++
	return nil
}

// rebuildWith reconstructs the whole index over its live translations plus
// extras (paper §4.3.4's last resort; also used for far-out-of-bounds
// inserts). Rebuilds are counted and, per §7.3, should stay in the low
// single digits over an application's lifetime.
func (ix *Index) rebuildWith(extras []Mapping) error {
	ms := normalize(append(ix.collectMappings(), extras...))
	if len(ms) == 0 {
		return ErrEmpty
	}
	// Release old tables (node-array storage is released by construct).
	for _, l := range ix.levels {
		for _, n := range l {
			if n.isLeaf() && n.table != nil {
				n.table.Release()
			}
		}
	}
	ix.stats.Rebuilds++
	return ix.construct(ms)
}

// Free removes the translation for v. Following §5.2, the index and the
// gap are kept: only the PTE is cleared, so no retraining and no LWC flush.
// Returns false if v was not mapped.
func (ix *Index) Free(v addr.VPN) bool {
	leaf := ix.leafFor(v)
	if leaf == nil || leaf.table == nil {
		return false
	}
	pred := int(leaf.predict(v))
	reach := leaf.table.Slots()
	if !leaf.table.Erase(pred, v, reach) {
		return false
	}
	return true
}

// availOrder returns the contiguity limit for new table allocations.
func (ix *Index) availOrder() int {
	if o := ix.mem.MaxFreeOrder(); o >= 0 {
		return o
	}
	return 0
}
