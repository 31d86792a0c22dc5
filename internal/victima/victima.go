// Package victima implements a Victima-style translation scheme (Kanellopoulos
// et al., MICRO'23, see PAPERS.md): TLB-extending translation entries live in
// the *modeled cache hierarchy* itself rather than in dedicated SRAM. Each
// process owns a physically backed, direct-mapped store of tagged PTEs; on an
// L2 TLB miss the walker probes the store with one memory request — the probe
// enters at L2 like any walk request, so store entries are cached in L2 and
// evicted under ordinary cache pressure, which is exactly the mechanism the
// scheme trades on. A store miss falls back to the radix walk, and the fill
// that installs the fetched entry into the store rides the walk's verify
// region: it completes concurrently with the data access, off the critical
// path, like a TLB fill.
//
// Only 4 KB translations are cached (huge pages keep radix walks short and a
// 2 MB entry would alias 512 probe tags); under THP the scheme degrades to
// radix plus one parallel probe.
package victima

import (
	"fmt"

	"lvm/internal/addr"
	"lvm/internal/metrics"
	"lvm/internal/mmu"
	"lvm/internal/phys"
	"lvm/internal/pte"
	"lvm/internal/radix"
	"lvm/internal/stats"
)

// DefaultStoreSlots sizes the per-process store: 16 Ki slots of 8 bytes is a
// 128 KB region — far beyond the L2 TLB's reach, but several times the scaled
// L2 cache, so which slots stay fast is decided by cache residency, not by a
// dedicated structure's capacity.
const DefaultStoreSlots = 1 << 14

// Table is one process's Victima state: the authoritative radix table plus
// the physically backed translation store. The store is a pure performance
// cache — the OS invalidates the affected slot on every map/unmap/protect, so
// it can never return a translation the radix table would not.
type Table struct {
	mem   *phys.Memory
	Radix *radix.Table

	// slots mirrors the store region's contents; base/order anchor it in
	// simulated physical memory so every probe has a real PA.
	slots []pte.Tagged
	base  addr.PPN
	order int
	mask  uint64
}

// New creates a table with the default store sizing.
func New(mem *phys.Memory) (*Table, error) { return NewSized(mem, DefaultStoreSlots) }

// NewSized creates a table whose store has the given slot count (a power of
// two).
func NewSized(mem *phys.Memory, storeSlots int) (*Table, error) {
	if storeSlots <= 0 || storeSlots&(storeSlots-1) != 0 {
		return nil, fmt.Errorf("victima: store slots must be a positive power of two, got %d", storeSlots)
	}
	rt, err := radix.New(mem)
	if err != nil {
		return nil, err
	}
	order := phys.OrderForBytes(uint64(storeSlots) * pte.TaggedBytes)
	base, err := mem.Alloc(order)
	if err != nil {
		rt.Release()
		return nil, fmt.Errorf("victima: allocating translation store: %w", err)
	}
	return &Table{
		mem:   mem,
		Radix: rt,
		slots: make([]pte.Tagged, storeSlots),
		base:  base,
		order: order,
		mask:  uint64(storeSlots - 1),
	}, nil
}

// slotIndex maps a VPN to its direct-mapped store slot.
func (t *Table) slotIndex(v addr.VPN) uint64 { return uint64(v) & t.mask }

// SlotPA returns the physical address of a VPN's store slot — the request
// the walker issues for the probe and the fill.
func (t *Table) SlotPA(v addr.VPN) addr.PA {
	return addr.SlotPA(t.base, t.slotIndex(v), pte.TaggedBytes)
}

// probe checks the store for an exact-VPN hit.
func (t *Table) probe(v addr.VPN) (pte.Entry, bool) {
	s := t.slots[t.slotIndex(v)]
	if s.Valid() && s.Tag == v {
		return s.Entry, true
	}
	return 0, false
}

// insert installs a 4 KB translation fetched by a radix walk (called from
// the walker's fill path, never from the OS).
func (t *Table) insert(v addr.VPN, e pte.Entry) {
	t.slots[t.slotIndex(v)] = pte.Tagged{Tag: v, Entry: e}
}

// invalidate drops the slot caching v, if it does.
func (t *Table) invalidate(v addr.VPN) {
	i := t.slotIndex(v)
	if t.slots[i].Valid() && t.slots[i].Tag == v {
		t.slots[i] = pte.Tagged{}
	}
}

// Map installs a translation in the radix table and invalidates the store
// slot so a stale cached entry (a remap or permission change) cannot
// survive it.
func (t *Table) Map(v addr.VPN, e pte.Entry) error {
	if err := t.Radix.Map(v, e); err != nil {
		return err
	}
	t.invalidate(v)
	return nil
}

// Unmap removes a translation, invalidating its store slot.
func (t *Table) Unmap(v addr.VPN) bool {
	ok := t.Radix.Unmap(v)
	if ok {
		t.invalidate(v)
	}
	return ok
}

// Lookup is the software walk (the radix table is authoritative).
func (t *Table) Lookup(v addr.VPN) (pte.Entry, bool) { return t.Radix.Lookup(v) }

// TableBytes returns the physical memory consumed: radix table pages plus
// the store region.
func (t *Table) TableBytes() uint64 {
	return t.Radix.TableBytes() + phys.BlockBytes(t.order)
}

// Release frees the store region and the radix table (process exit).
func (t *Table) Release() {
	t.mem.Free(t.base, t.order)
	t.slots = nil
	t.Radix.Release()
}

// Walker is the Victima hardware walker: one store probe, then a radix
// walk (with its PWC) on a store miss, then the off-critical-path fill.
type Walker struct {
	tables map[uint16]*Table
	// lastASID/lastTable memoize the most recent tables lookup so walks
	// skip the map per access; Attach/Detach invalidate it.
	lastASID  uint16
	lastTable *Table
	rad       *radix.Walker
	// buf is the reusable walk-trace buffer; the embedded radix walker
	// appends into it after the probe, so composing the trace never copies.
	buf mmu.WalkBuf

	storeHits, storeMisses, fills stats.Counter
}

// NewWalker creates the walker (radix PWC sizing from Table 1 for the
// fallback walk).
func NewWalker() *Walker {
	return &Walker{tables: make(map[uint16]*Table), rad: radix.NewWalker(32)}
}

// Attach registers a table under an ASID.
func (w *Walker) Attach(asid uint16, t *Table) {
	w.tables[asid] = t
	w.lastTable = nil
	w.rad.Attach(asid, t.Radix)
}

// Detach removes a process's table (and its radix walker state).
func (w *Walker) Detach(asid uint16) {
	delete(w.tables, asid)
	w.lastTable = nil
	w.rad.Detach(asid)
}

// table resolves an ASID's table through the one-entry memo.
func (w *Walker) table(asid uint16) (*Table, bool) {
	if w.lastTable != nil && w.lastASID == asid {
		return w.lastTable, true
	}
	t, ok := w.tables[asid]
	if ok {
		w.lastASID, w.lastTable = asid, t
	}
	return t, ok
}

// Name implements mmu.Walker.
func (w *Walker) Name() string { return "victima" }

// Snapshot implements metrics.Source: the store probe counters plus the
// fallback radix walker's PWC counters.
func (w *Walker) Snapshot() metrics.Set {
	s := w.rad.Snapshot()
	s.Counter("store.hits", w.storeHits.Value())
	s.Counter("store.misses", w.storeMisses.Value())
	s.Counter("store.fills", w.fills.Value())
	return s
}

var _ metrics.Source = (*Walker)(nil)

// Walk implements mmu.Walker.
func (w *Walker) Walk(asid uint16, v addr.VPN) mmu.Outcome {
	t, ok := w.table(asid)
	if !ok {
		return mmu.Outcome{}
	}
	w.buf.Reset()
	return w.walkInto(&w.buf, t, asid, v)
}

// walkInto emits one walk's trace into b: the store probe (one request, one
// group — it enters the hierarchy at L2 like every walk request, so its
// latency is the store's cache residency), then on a probe miss the radix
// fallback, then the store fill in the verify region.
func (w *Walker) walkInto(b *mmu.WalkBuf, t *Table, asid uint16, v addr.VPN) mmu.Outcome {
	slotPA := t.SlotPA(v)
	b.AddGroup(slotPA)
	if e, hit := t.probe(v); hit {
		w.storeHits.Inc()
		return b.Outcome(e, true, mmu.StepCycles)
	}
	w.storeMisses.Inc()
	radOut := w.rad.WalkInto(b, asid, v)
	wcc := radOut.WalkCacheCycles + mmu.StepCycles
	if radOut.Found && radOut.Entry.Size() == addr.Page4K {
		// Install the fetched entry off the critical path: the store write
		// overlaps the data access, exactly like the TLB fill it mirrors.
		b.BeginVerify()
		b.AddGroup(slotPA)
		t.insert(v, radOut.Entry)
		w.fills.Inc()
	}
	return b.Outcome(radOut.Entry, radOut.Found, wcc)
}

// Lookup implements mmu.Lookuper: the translation resolved through the
// store and the radix table alone — the store is probed first, as Walk
// does, but never filled, and no walk cache is probed or filled.
func (w *Walker) Lookup(asid uint16, v addr.VPN) (pte.Entry, bool) {
	t, ok := w.tables[asid]
	if !ok {
		return 0, false
	}
	if e, hit := t.probe(v); hit {
		return e, true
	}
	return t.Lookup(v)
}

// WalkBatch implements mmu.BatchWalker by walking each VPN in turn.
func (w *Walker) WalkBatch(asid uint16, vpns []addr.VPN, bufs *mmu.WalkBatchBuf) {
	mmu.WalkSerial(w, asid, vpns, bufs)
}

var _ mmu.Walker = (*Walker)(nil)
var _ mmu.BatchWalker = (*Walker)(nil)
var _ mmu.Lookuper = (*Walker)(nil)
