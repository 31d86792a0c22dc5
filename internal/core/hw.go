package core

import (
	"lvm/internal/addr"
	"lvm/internal/metrics"
	"lvm/internal/mmu"
	"lvm/internal/pte"
)

// HWWalker is LVM's hardware page table walker (paper §4.6.2, Fig. 7): on
// an L2 TLB miss it traverses the learned index, consulting the LVM Walk
// Cache for each node and fetching missing nodes from memory, then fetches
// the predicted PTE cluster. Each node step costs one fixed-point
// multiply-add (2 cycles, §7.4).
type HWWalker struct {
	mmu.Tables[*attachment]
	lwc *mmu.LWC
	// flushes counts LWC invalidations driven by OS retrains (§5.2).
	flushes uint64
	// buf is the reusable walk-trace buffer; Walk outcomes view it and
	// stay valid until the next Walk.
	buf mmu.WalkBuf
}

// attachment is one address space's index plus the OS maintenance counts
// the walker has already reconciled against the LWC.
type attachment struct {
	ix *Index
	// norm applies the ASLR base registers (§5.2): raw VPN → the canonical
	// VPN the index was trained on. Nil means identity.
	norm func(addr.VPN) addr.VPN
	// retrains, rebuilds and lazy are the index's Retrains, Rebuilds and
	// LazyTrains counts as of the last reconcile.
	retrains, rebuilds, lazy uint64
}

// NewHWWalker creates a walker with the Table-1 LWC size (16 entries).
func NewHWWalker(lwcEntries int) *HWWalker {
	return &HWWalker{lwc: mmu.NewLWC(lwcEntries)}
}

// Attach registers a process's learned index under an ASID.
func (w *HWWalker) Attach(asid uint16, ix *Index) {
	w.AttachNormalized(asid, ix, nil)
}

// AttachNormalized registers an index together with the ASLR normalization
// the OS exposed through base registers (§5.2).
func (w *HWWalker) AttachNormalized(asid uint16, ix *Index, norm func(addr.VPN) addr.VPN) {
	w.Tables.Attach(asid, &attachment{ix: ix, norm: norm})
}

// Detach removes a process's index and flushes its LWC entries (process
// exit; §4.6.2's ASID tagging makes this the only flush needed).
func (w *HWWalker) Detach(asid uint16) {
	w.Drop(asid)
	w.lwc.FlushASID(asid)
	w.flushes++
}

// Name implements mmu.Walker.
func (w *HWWalker) Name() string { return "lvm" }

// LWC exposes the walk cache for stats.
func (w *HWWalker) LWC() *mmu.LWC { return w.lwc }

// Snapshot implements metrics.Source: the LWC hit/miss counters plus the
// OS-driven flush count (lwc.hits, lwc.misses, lwc.flushes).
func (w *HWWalker) Snapshot() metrics.Set {
	var s metrics.Set
	s.Merge("lwc", w.lwc.Snapshot())
	s.Counter("lwc.flushes", w.flushes)
	return s
}

var _ metrics.Source = (*HWWalker)(nil)

// Walk implements mmu.Walker.
func (w *HWWalker) Walk(asid uint16, v addr.VPN) mmu.Outcome {
	at, ok := w.Table(asid)
	if !ok {
		return mmu.Outcome{}
	}
	w.reconcile(asid, at)
	if at.norm != nil {
		v = at.norm(v)
	}
	r := at.ix.Walk(v)
	w.buf.Reset()
	wcc := 0
	for _, n := range r.Nodes {
		wcc += mmu.StepCycles
		if !w.lwc.Lookup(asid, n.Level, n.Offset) {
			// Fetch the 64-byte line holding the node from memory.
			w.buf.AddGroup(n.PA)
			w.lwc.Insert(asid, n.Level, n.Offset)
		}
	}
	for _, pa := range r.PTEPAs {
		w.buf.AddGroup(pa)
	}
	return w.buf.Outcome(r.Entry, r.Found, wcc)
}

// Lookup implements mmu.Lookuper: the translation resolved through the
// learned index alone, with no OS reconcile, LWC probe, fill or trace.
func (w *HWWalker) Lookup(asid uint16, v addr.VPN) (pte.Entry, bool) {
	at, ok := w.Table(asid)
	if !ok {
		return 0, false
	}
	if at.norm != nil {
		v = at.norm(v)
	}
	r := at.ix.Walk(v)
	return r.Entry, r.Found
}

// WalkBatch implements mmu.BatchWalker by walking each VPN in turn.
func (w *HWWalker) WalkBatch(asid uint16, vpns []addr.VPN, bufs *mmu.WalkBatchBuf) {
	mmu.WalkSerial(w, asid, vpns, bufs)
}

// reconcile applies OS-side retrain/rebuild events to the LWC: a retrain
// flushes the affected node, a rebuild flushes the address space (§5.2).
// The walker polls the index's counters, which models the OS issuing the
// flush at the moment it retrains.
func (w *HWWalker) reconcile(asid uint16, at *attachment) {
	s := &at.ix.stats
	if s.Rebuilds > at.rebuilds {
		w.lwc.FlushASID(asid)
		w.flushes += s.Rebuilds - at.rebuilds
		at.rebuilds = s.Rebuilds
		// A rebuild subsumes outstanding retrain flushes.
		at.retrains = s.Retrains
		return
	}
	if s.Retrains > at.retrains {
		// The OS flushes only the retrained node; we conservatively flush
		// the ASID's leaf entries by dropping the whole ASID — with a
		// 16-entry LWC the cost is indistinguishable, and retrains are
		// rare (≤3 per run, §7.3).
		w.lwc.FlushASID(asid)
		w.flushes += s.Retrains - at.retrains
		at.retrains = s.Retrains
	}
	if s.LazyTrains > at.lazy {
		// A previously empty leaf got its first model: its cached
		// empty-model LWC entry is stale.
		w.lwc.FlushASID(asid)
		w.flushes += s.LazyTrains - at.lazy
		at.lazy = s.LazyTrains
	}
}

var _ mmu.Walker = (*HWWalker)(nil)
var _ mmu.BatchWalker = (*HWWalker)(nil)
var _ mmu.Lookuper = (*HWWalker)(nil)
