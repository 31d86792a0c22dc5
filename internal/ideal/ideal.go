// Package ideal implements the paper's upper-bound comparison point: a
// page table that always locates the translation with exactly one memory
// access (§6.3). It is not realizable hardware — it exists to show how
// close LVM gets (within 1% in the paper).
package ideal

import (
	"fmt"

	"lvm/internal/addr"
	"lvm/internal/metrics"
	"lvm/internal/mmu"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

// Table maps VPNs to entries and assigns each translation a stable
// physical address inside a dense table region, so cache behaviour is
// realistic (sequential VPNs share cache lines, as a perfect single-access
// table would).
type Table struct {
	mem     *phys.Memory
	entries map[addr.VPN]pte.Entry
	base    addr.PPN
	order   int
	slots   uint64
}

// New creates an ideal table sized for the expected number of mappings.
func New(mem *phys.Memory, expected int) (*Table, error) {
	slots := uint64(1)
	for slots < uint64(expected)*2 {
		slots *= 2
	}
	order := phys.OrderForBytes(slots * pte.Bytes)
	base, err := mem.Alloc(order)
	if err != nil {
		return nil, fmt.Errorf("ideal: allocating table: %w", err)
	}
	return &Table{
		mem:     mem,
		entries: make(map[addr.VPN]pte.Entry, expected),
		base:    base,
		order:   order,
		slots:   phys.BlockBytes(order) / pte.Bytes,
	}, nil
}

// Map installs a translation.
func (t *Table) Map(v addr.VPN, e pte.Entry) {
	t.entries[addr.AlignDown(v, e.Size())] = e
}

// Unmap removes a translation.
func (t *Table) Unmap(v addr.VPN) bool {
	for _, s := range [...]addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G} {
		if _, ok := t.entries[addr.AlignDown(v, s)]; ok {
			delete(t.entries, addr.AlignDown(v, s))
			return true
		}
	}
	return false
}

// Lookup is the software walk.
func (t *Table) Lookup(v addr.VPN) (pte.Entry, bool) {
	for _, s := range [...]addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G} {
		if e, ok := t.entries[addr.AlignDown(v, s)]; ok && e.Size() == s {
			return e, true
		}
	}
	return 0, false
}

// entryPA gives each translation a deterministic slot in the dense region.
// The slot index is per granule (VPN divided by the page size), so
// consecutive huge pages occupy consecutive slots — a true single-access table
// would be dense per translation, and a strided layout would alias cache
// sets (512-VPN stride × 8 B = exactly the set stride).
func (t *Table) entryPA(v addr.VPN, size addr.PageSize) addr.PA {
	granule := uint64(v) / size.BaseVPNs()
	slot := granule & (t.slots - 1)
	return addr.SlotPA(t.base, slot, pte.Bytes)
}

// Release returns the dense table block to the allocator (process exit).
func (t *Table) Release() {
	t.mem.Free(t.base, t.order)
	t.entries = map[addr.VPN]pte.Entry{}
}

// Walker implements mmu.Walker with exactly one memory request per walk.
type Walker struct {
	tables map[uint16]*Table
	// lastASID/lastTable memoize the most recent tables lookup so walks
	// skip the map per access; Attach/Detach invalidate it.
	lastASID  uint16
	lastTable *Table
	// buf is the reusable walk-trace buffer; Walk outcomes view it and
	// stay valid until the next Walk.
	buf mmu.WalkBuf
}

// NewWalker creates the walker.
func NewWalker() *Walker { return &Walker{tables: make(map[uint16]*Table)} }

// Attach registers a table under an ASID.
func (w *Walker) Attach(asid uint16, t *Table) {
	w.tables[asid] = t
	w.lastTable = nil
}

// Detach removes a process's table (process exit).
func (w *Walker) Detach(asid uint16) {
	delete(w.tables, asid)
	w.lastTable = nil
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
func (w *Walker) Name() string { return "ideal" }

// Snapshot implements metrics.Source. The ideal walker has no walk caches
// and no counters of its own — every walk is exactly one memory request,
// all visible in the cache/DRAM snapshots — so its set is empty; the
// method exists so the simulator's uniform walker instrumentation covers
// every scheme.
func (w *Walker) Snapshot() metrics.Set { return metrics.Set{} }

var _ metrics.Source = (*Walker)(nil)

// Walk implements mmu.Walker.
func (w *Walker) Walk(asid uint16, v addr.VPN) mmu.Outcome {
	t, ok := w.table(asid)
	if !ok {
		return mmu.Outcome{}
	}
	e, found := t.Lookup(v)
	w.buf.Reset()
	w.buf.AddGroup(t.entryPA(addr.AlignDown(v, e.Size()), e.Size()))
	return w.buf.Outcome(e, found, 0)
}

// Lookup implements mmu.Lookuper: the translation resolved through the
// table alone, with no trace.
func (w *Walker) Lookup(asid uint16, v addr.VPN) (pte.Entry, bool) {
	t, ok := w.tables[asid]
	if !ok {
		return 0, false
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
