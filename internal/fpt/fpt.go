// Package fpt implements Flattened Page Tables (Park et al., ASPLOS'22),
// the §7.5.3 comparison: adjacent radix levels are folded into 2 MB tables
// (L4+L3 into one upper table, L2+L1 into one leaf table per 1 GB region),
// cutting a cold walk from four accesses to two — but only when the 2 MB
// physically contiguous table allocations succeed. Under fragmentation the
// affected regions degrade to radix behaviour, which is exactly the effect
// the paper measures.
package fpt

import (
	"fmt"
	"sort"

	"lvm/internal/addr"
	"lvm/internal/metrics"
	"lvm/internal/mmu"
	"lvm/internal/phys"
	"lvm/internal/pte"
	"lvm/internal/stats"
)

// foldOrder is the buddy order of a folded table (2 MB).
const foldOrder = 9

// upperIndexBits is the folded L4+L3 index width (18 VPN bits → 2^18
// entries × 8 B = 2 MB).
const upperIndexBits = 18

// region is one 1 GB VA region's folded leaf table.
type region struct {
	folded bool
	base   addr.PPN // folded L2+L1 table (2 MB), when folded
	// Fallback radix pieces: a PMD page plus one 4 KB PTE table per 2 MB
	// sub-region, allocated lazily — exactly the layout radix would use,
	// so the unfolded path has radix's cache behaviour.
	pmdBase   addr.PPN
	leafPages map[uint64]addr.PPN
}

// Table is one process's flattened page table.
type Table struct {
	mem *phys.Memory
	// upper is the folded L4+L3 table.
	upperFolded bool
	upperBase   addr.PPN
	// regions maps VPN>>18 (1 GB granule) to its leaf table state.
	regions map[uint64]*region
	// entries is the translation store (tagged by aligned VPN).
	entries map[addr.VPN]pte.Entry

	foldFailures stats.Counter
}

// New creates a flattened table; the upper fold is allocated eagerly.
func New(mem *phys.Memory) (*Table, error) {
	t := &Table{
		mem:     mem,
		regions: make(map[uint64]*region),
		entries: make(map[addr.VPN]pte.Entry),
	}
	if base, err := mem.Alloc(foldOrder); err == nil {
		t.upperFolded = true
		t.upperBase = base
	} else {
		// Degenerate: even the upper fold failed; behave as radix from the
		// start.
		base, err := mem.Alloc(0)
		if err != nil {
			return nil, fmt.Errorf("fpt: allocating root: %w", err)
		}
		t.upperBase = base
		t.foldFailures.Inc()
	}
	return t, nil
}

func (t *Table) regionFor(v addr.VPN) *region {
	key := uint64(v) >> upperIndexBits
	r, ok := t.regions[key]
	if !ok {
		// First touch of a 1 GB region: the install below runs once per
		// region per process lifetime, not per translation; the steady-state
		// walk takes the map-hit path above (TestStepZeroAllocs is the
		// dynamic backstop).
		r = &region{} //lint:allow hotalloc first-touch region install, once per 1GB region
		// Try the 2 MB folded leaf allocation; page-fault-time compaction
		// is not tolerable, so failure means a radix fallback (§7.5.3).
		//lint:allow hotalloc first-touch region install, once per 1GB region
		if base, err := t.mem.Alloc(foldOrder); err == nil {
			r.folded = true
			r.base = base
		} else {
			t.foldFailures.Inc()
			r.leafPages = make(map[uint64]addr.PPN) //lint:allow hotalloc first-touch region install, once per 1GB region
			//lint:allow hotalloc first-touch region install, once per 1GB region
			if base, err := t.mem.Alloc(0); err == nil {
				r.pmdBase = base
			}
		}
		t.regions[key] = r
	}
	return r
}

// Map installs a translation.
func (t *Table) Map(v addr.VPN, e pte.Entry) error {
	tag := addr.AlignDown(v, e.Size())
	t.entries[tag] = e
	t.regionFor(v)
	return nil
}

// Unmap removes a translation.
func (t *Table) Unmap(v addr.VPN) bool {
	for _, s := range [...]addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G} {
		tag := addr.AlignDown(v, s)
		if e, ok := t.entries[tag]; ok && e.Size() == s {
			delete(t.entries, tag)
			return true
		}
	}
	return false
}

// Lookup is the software walk.
func (t *Table) Lookup(v addr.VPN) (pte.Entry, bool) {
	for _, s := range [...]addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G} {
		tag := addr.AlignDown(v, s)
		if e, ok := t.entries[tag]; ok && e.Size() == s {
			return e, true
		}
	}
	return 0, false
}

// FoldFailures counts 2 MB table allocations that fell back to radix.
func (t *Table) FoldFailures() uint64 { return t.foldFailures.Value() }

// FoldedFraction returns the fraction of touched 1 GB regions with folded
// leaf tables.
func (t *Table) FoldedFraction() float64 {
	if len(t.regions) == 0 {
		return 1
	}
	folded := 0
	for _, r := range t.regions {
		if r.folded {
			folded++
		}
	}
	return float64(folded) / float64(len(t.regions))
}

func (t *Table) upperPA(v addr.VPN) addr.PA {
	idx := uint64(v) >> upperIndexBits
	span := phys.BlockBytes(foldOrder) / pte.Bytes
	return addr.SlotPA(t.upperBase, idx%span, pte.Bytes)
}

func (t *Table) leafPA(r *region, v addr.VPN) addr.PA {
	idx := uint64(v) & ((1 << upperIndexBits) - 1)
	if r.folded {
		return addr.SlotPA(r.base, idx, pte.Bytes)
	}
	// Unfolded: one real 4 KB PTE table per 2 MB sub-region, like radix.
	sub := uint64(v) >> 9
	page, ok := r.leafPages[sub]
	if !ok {
		// Lazy PTE-table install, once per 2 MB sub-region; making it eager
		// would reorder PFN allocation and change the measured layout.
		//lint:allow hotalloc first-touch leaf-table install, once per 2MB sub-region
		if p, err := t.mem.Alloc(0); err == nil {
			page = p
		} else {
			page = r.pmdBase
		}
		r.leafPages[sub] = page
	}
	return addr.SlotPA(page, idx%512, pte.Bytes)
}

func (t *Table) pmdPA(r *region, v addr.VPN) addr.PA {
	return addr.SlotPA(r.pmdBase, uint64(v)>>9%512, pte.Bytes)
}

// Release returns every table allocation — the upper fold, folded leaf
// regions, and radix-fallback pieces — to the allocator (process exit).
func (t *Table) Release() {
	upperOrder := 0
	if t.upperFolded {
		upperOrder = foldOrder
	}
	t.mem.Free(t.upperBase, upperOrder)
	// Free in sorted key order (the oskernel.Kill idiom): map iteration is
	// randomized, and the buddy allocator's split/merge history depends on
	// the order frames come back.
	keys := make([]uint64, 0, len(t.regions))
	for key := range t.regions {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, key := range keys {
		r := t.regions[key]
		if r.folded {
			t.mem.Free(r.base, foldOrder)
			continue
		}
		if r.pmdBase != 0 {
			t.mem.Free(r.pmdBase, 0)
		}
		subs := make([]uint64, 0, len(r.leafPages))
		for sub := range r.leafPages {
			subs = append(subs, sub)
		}
		sort.Slice(subs, func(i, j int) bool { return subs[i] < subs[j] })
		for _, sub := range subs {
			t.mem.Free(r.leafPages[sub], 0)
		}
	}
	t.regions = map[uint64]*region{}
	t.entries = map[addr.VPN]pte.Entry{}
}

// Walker is the FPT hardware walker with a PWC over folded upper entries.
type Walker struct {
	mmu.Tables[*Table]
	upper *mmu.PWC
	// buf is the reusable walk-trace buffer; Walk outcomes view it and
	// stay valid until the next Walk.
	buf mmu.WalkBuf
}

// NewWalker creates the walker (32-entry upper PWC, as radix's per-level
// size in Table 1).
func NewWalker() *Walker {
	return &Walker{upper: mmu.NewPWC("fpt-upper", 32)}
}

// Detach removes a process's table and flushes its PWC entries.
func (w *Walker) Detach(asid uint16) {
	w.Drop(asid)
	w.upper.FlushASID(asid)
}

// Name implements mmu.Walker.
func (w *Walker) Name() string { return "fpt" }

// Snapshot implements metrics.Source: the folded-upper-level PWC counters.
func (w *Walker) Snapshot() metrics.Set {
	var s metrics.Set
	s.Merge("pwc.upper", w.upper.Snapshot())
	return s
}

var _ metrics.Source = (*Walker)(nil)

// Walk implements mmu.Walker: folded regions take two sequential accesses
// (one with a PWC hit); unfolded regions behave like radix (four cold,
// PWC-trimmed warm).
func (w *Walker) Walk(asid uint16, v addr.VPN) mmu.Outcome {
	t, ok := w.Table(asid)
	if !ok {
		return mmu.Outcome{}
	}
	w.buf.Reset()
	b := &w.buf
	r := t.regionFor(v)

	upperHit := w.upper.Lookup(asid, uint64(v)>>upperIndexBits)
	if !upperHit {
		b.AddGroup(t.upperPA(v))
		w.upper.Insert(asid, uint64(v)>>upperIndexBits)
	}
	if r.folded && t.upperFolded {
		b.AddGroup(t.leafPA(r, v))
	} else {
		// Radix fallback inside this region: PMD then PTE (the upper
		// covered L4+L3 equivalents).
		b.AddGroup(t.pmdPA(r, v))
		b.AddGroup(t.leafPA(r, v))
	}
	e, found := t.Lookup(v)
	return b.Outcome(e, found, mmu.StepCycles)
}

// Lookup implements mmu.Lookuper: the translation resolved through the
// table alone, with no region install, PWC probe, fill or trace.
func (w *Walker) Lookup(asid uint16, v addr.VPN) (pte.Entry, bool) {
	t, ok := w.Table(asid)
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
