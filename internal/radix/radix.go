// Package radix implements the x86-64 four-level radix page table and its
// hardware walker with a three-level page walk cache — the status-quo
// baseline of the paper (§2.1, Table 1).
//
// The table is built in simulated physical memory so every walk step has a
// real physical address; the walker issues up to four sequential requests
// (PGD→PUD→PMD→PTE), trimmed by PWC hits on the three upper levels, and
// stops at the PMD for 2 MB pages.
package radix

import (
	"fmt"

	"lvm/internal/addr"
	"lvm/internal/metrics"
	"lvm/internal/mmu"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

// tableNode is one 4 KB page table (512 entries of 8 bytes).
type tableNode struct {
	ppn addr.PPN
	// children[i] points to the next-level table, for non-leaf entries.
	children [addr.RadixFanout]*tableNode
	// leaves[i] holds a leaf translation (PTE at level 1, or a 2 MB leaf
	// PMD entry at level 2).
	leaves [addr.RadixFanout]pte.Entry
}

func (n *tableNode) entryPA(index int) addr.PA {
	return addr.SlotPA(n.ppn, uint64(index), pte.Bytes)
}

// Table is one process's radix page table.
type Table struct {
	mem  *phys.Memory
	root *tableNode

	// tablePages counts allocated page-table pages, for the memory
	// overhead comparison of §7.3.
	tablePages uint64
}

// New creates an empty four-level table.
func New(mem *phys.Memory) (*Table, error) {
	t := &Table{mem: mem}
	root, err := t.newNode()
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

func (t *Table) newNode() (*tableNode, error) {
	ppn, err := t.mem.Alloc(0)
	if err != nil {
		return nil, fmt.Errorf("radix: allocating table page: %w", err)
	}
	t.tablePages++
	return &tableNode{ppn: ppn}, nil
}

// Map installs a translation. 2 MB entries are installed at the PMD
// (level 2) and must be aligned.
func (t *Table) Map(v addr.VPN, e pte.Entry) error {
	leafLevel := 1
	if e.Size() == addr.Page2M {
		leafLevel = 2
		if !addr.Aligned(v, addr.Page2M) {
			return fmt.Errorf("radix: unaligned 2MB mapping at VPN %#x", uint64(v))
		}
	} else if e.Size() == addr.Page1G {
		leafLevel = 3
		if !addr.Aligned(v, addr.Page1G) {
			return fmt.Errorf("radix: unaligned 1GB mapping at VPN %#x", uint64(v))
		}
	}
	n := t.root
	for level := addr.RadixLevels; level > leafLevel; level-- {
		idx := addr.RadixIndex(v, level)
		if n.children[idx] == nil {
			child, err := t.newNode()
			if err != nil {
				return err
			}
			n.children[idx] = child
		}
		n = n.children[idx]
	}
	n.leaves[addr.RadixIndex(v, leafLevel)] = e
	return nil
}

// Unmap clears a translation. Upper-level tables are retained (Linux frees
// them lazily); returns false if nothing was mapped.
func (t *Table) Unmap(v addr.VPN) bool {
	n := t.root
	for level := addr.RadixLevels; level >= 1; level-- {
		idx := addr.RadixIndex(v, level)
		if e := n.leaves[idx]; e.Present() && level > 1 {
			// Huge leaf at this level.
			n.leaves[idx] = 0
			return true
		}
		if level == 1 {
			if !n.leaves[idx].Present() {
				return false
			}
			n.leaves[idx] = 0
			return true
		}
		if n.children[idx] == nil {
			return false
		}
		n = n.children[idx]
	}
	return false
}

// Lookup is the software walk.
func (t *Table) Lookup(v addr.VPN) (pte.Entry, bool) {
	n := t.root
	for level := addr.RadixLevels; level >= 1; level-- {
		idx := addr.RadixIndex(v, level)
		if e := n.leaves[idx]; e.Present() {
			return e, true
		}
		if level == 1 || n.children[idx] == nil {
			return 0, false
		}
		n = n.children[idx]
	}
	return 0, false
}

// TableBytes returns the physical memory consumed by page-table pages —
// the §7.3 memory-overhead metric for radix.
func (t *Table) TableBytes() uint64 { return t.tablePages * addr.PageSize4K }

// Release returns every page-table page to the allocator; the table is
// unusable afterwards (process exit).
func (t *Table) Release() {
	var free func(n *tableNode)
	free = func(n *tableNode) {
		for _, c := range n.children {
			if c != nil {
				free(c)
			}
		}
		t.mem.Free(n.ppn, 0)
	}
	if t.root != nil {
		free(t.root)
	}
	t.root = nil
	t.tablePages = 0
}

// Walker is the hardware radix page walker with a 3-level PWC.
type Walker struct {
	tables map[uint16]*Table
	// lastASID/lastTable memoize the most recent tables lookup so walks
	// skip the map on every access; Attach/Detach invalidate it.
	lastASID  uint16
	lastTable *Table
	// pml4e caches root entries (prefix v>>27), pdpte caches level-3
	// entries (v>>18), pde caches level-2 entries (v>>9).
	pml4e, pdpte, pde *mmu.PWC
	// buf is the reusable walk-trace buffer; Walk outcomes view it and
	// stay valid until the next Walk.
	buf mmu.WalkBuf
}

// NewWalker creates a walker over per-ASID tables with Table-1 PWC sizing
// (32 entries per level).
func NewWalker(entriesPerLevel int) *Walker {
	return &Walker{
		tables: make(map[uint16]*Table),
		pml4e:  mmu.NewPWC("pml4e", entriesPerLevel),
		pdpte:  mmu.NewPWC("pdpte", entriesPerLevel),
		pde:    mmu.NewPWC("pde", entriesPerLevel),
	}
}

// Attach registers a process's table under an ASID.
func (w *Walker) Attach(asid uint16, t *Table) {
	w.tables[asid] = t
	w.lastTable = nil
}

// Detach removes a process's table and flushes its PWC entries (process
// exit / context teardown).
func (w *Walker) Detach(asid uint16) {
	delete(w.tables, asid)
	w.lastTable = nil
	w.pml4e.FlushASID(asid)
	w.pdpte.FlushASID(asid)
	w.pde.FlushASID(asid)
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
func (w *Walker) Name() string { return "radix" }

// PWCs returns the three walk-cache levels for stats inspection
// (pml4e, pdpte, pde).
func (w *Walker) PWCs() (pml4e, pdpte, pde *mmu.PWC) { return w.pml4e, w.pdpte, w.pde }

// Snapshot implements metrics.Source: the per-level PWC counters
// (pwc.pml4e.hits, pwc.pdpte.misses, ...).
func (w *Walker) Snapshot() metrics.Set {
	var s metrics.Set
	s.Merge("pwc."+w.pml4e.Name(), w.pml4e.Snapshot())
	s.Merge("pwc."+w.pdpte.Name(), w.pdpte.Snapshot())
	s.Merge("pwc."+w.pde.Name(), w.pde.Snapshot())
	return s
}

var _ metrics.Source = (*Walker)(nil)

// Walk implements mmu.Walker: probe the PWC deepest-first, then chase the
// remaining pointers sequentially. The outcome views the walker's reusable
// buffer and is valid until the next Walk.
func (w *Walker) Walk(asid uint16, v addr.VPN) mmu.Outcome {
	w.buf.Reset()
	return w.WalkInto(&w.buf, asid, v)
}

// WalkInto runs the walk appending its request groups to b, which the
// caller has prepared (ASAP seeds b with its prefetch requests and a
// collapsed group so the validating radix walk lands in the same parallel
// burst, composing the trace without an intermediate copy). The returned
// Outcome views b.
func (w *Walker) WalkInto(b *mmu.WalkBuf, asid uint16, v addr.VPN) mmu.Outcome {
	t, ok := w.table(asid)
	if !ok {
		return mmu.Outcome{}
	}

	// Deepest-first PWC probe; each level probed costs StepCycles (2
	// cycles, Table 1), symmetric with LVM's per-node model computation.
	// A pde hit skips PGD/PUD/PMD fetches, a pdpte hit skips PGD/PUD, a
	// pml4e hit skips PGD.
	startLevel := addr.RadixLevels
	wcc := mmu.StepCycles
	if w.pde.Lookup(asid, uint64(v)>>9) {
		startLevel = 1
	} else if wcc += mmu.StepCycles; w.pdpte.Lookup(asid, uint64(v)>>18) {
		startLevel = 2
	} else if wcc += mmu.StepCycles; w.pml4e.Lookup(asid, uint64(v)>>27) {
		startLevel = 3
	}

	n := t.root
	// Descend silently to startLevel's table (these levels were served by
	// the PWC).
	for level := addr.RadixLevels; level > startLevel; level-- {
		idx := addr.RadixIndex(v, level)
		if e := n.leaves[idx]; e.Present() {
			// A huge leaf above the PWC-covered level: the PWC would not
			// have cached past it; treat as found with one fetch.
			b.AddGroup(n.entryPA(idx))
			return b.Outcome(e, true, wcc)
		}
		if n.children[idx] == nil {
			return b.Outcome(0, false, wcc)
		}
		n = n.children[idx]
	}

	// Fetch the remaining levels sequentially.
	for level := startLevel; level >= 1; level-- {
		idx := addr.RadixIndex(v, level)
		b.AddGroup(n.entryPA(idx))
		if e := n.leaves[idx]; e.Present() {
			w.fill(asid, v, level)
			return b.Outcome(e, true, wcc)
		}
		if level == 1 || n.children[idx] == nil {
			// Not mapped.
			return b.Outcome(0, false, wcc)
		}
		n = n.children[idx]
	}
	return b.Outcome(0, false, wcc)
}

// Lookup implements mmu.Lookuper: the translation resolved through the
// table alone, with no walk-cache probe, fill or trace.
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

var _ mmu.BatchWalker = (*Walker)(nil)
var _ mmu.Lookuper = (*Walker)(nil)

// fill populates the PWC levels traversed down to (but not including) the
// leaf level.
func (w *Walker) fill(asid uint16, v addr.VPN, leafLevel int) {
	if leafLevel <= 1 {
		w.pde.Insert(asid, uint64(v)>>9)
	}
	if leafLevel <= 2 {
		w.pdpte.Insert(asid, uint64(v)>>18)
	}
	if leafLevel <= 3 {
		w.pml4e.Insert(asid, uint64(v)>>27)
	}
}

var _ mmu.Walker = (*Walker)(nil)
