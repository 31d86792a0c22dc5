// Package asap implements ASAP-style prefetched address translation
// (Margaritov et al., MICRO'19), the §7.5.1 comparison. ASAP keeps leaf
// page tables in contiguous physical memory per VMA so the PTE's location
// is directly computable; on a TLB miss it prefetches that location (and
// the PMD's) in parallel with the normal radix walk, which validates the
// prefetch.
//
// The effect the paper measures: latency approaches a single access when
// prefetching works, but every walk still issues the radix requests PLUS
// the prefetches — more traffic and more cache pollution than either ECPT
// or LVM.
package asap

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

// vma is one registered virtual memory area with its contiguous leaf-table
// region.
type vma struct {
	lo, hi addr.VPN
	// ptBase is the contiguous flat PTE region (8 B per page), when the
	// allocation succeeded.
	prefetchable bool
	ptBase       addr.PPN
	pmdBase      addr.PPN
}

// Table is one process's ASAP state: a plain radix table (the validator)
// plus per-VMA contiguous leaf-table regions.
type Table struct {
	mem   *phys.Memory
	Radix *radix.Table
	vmas  []vma

	allocFailures stats.Counter
}

// New wraps a fresh radix table.
func New(mem *phys.Memory) (*Table, error) {
	rt, err := radix.New(mem)
	if err != nil {
		return nil, err
	}
	return &Table{mem: mem, Radix: rt}, nil
}

// AddVMA registers an area and attempts the contiguous leaf-table
// allocation ASAP requires (potentially hundreds of MB for big VMAs —
// the availability problem §7.5.1 highlights).
func (t *Table) AddVMA(lo, hi addr.VPN) error {
	pages := uint64(hi-lo) + 1
	ptOrder := phys.OrderForBytes(pages * pte.Bytes)
	pmdOrder := phys.OrderForBytes(pages/512*pte.Bytes + pte.Bytes)
	v := vma{lo: lo, hi: hi}
	if ptBase, err := t.mem.Alloc(ptOrder); err == nil {
		if pmdBase, err := t.mem.Alloc(pmdOrder); err == nil {
			v.prefetchable = true
			v.ptBase = ptBase
			v.pmdBase = pmdBase
		} else {
			t.mem.Free(ptBase, ptOrder)
			t.allocFailures.Inc()
		}
	} else {
		t.allocFailures.Inc()
	}
	t.vmas = append(t.vmas, v)
	if !v.prefetchable {
		return fmt.Errorf("asap: VMA [%#x,%#x] not prefetchable (no contiguity)", uint64(lo), uint64(hi))
	}
	return nil
}

// Map installs a translation in the validating radix table.
func (t *Table) Map(v addr.VPN, e pte.Entry) error { return t.Radix.Map(v, e) }

// Unmap removes a translation.
func (t *Table) Unmap(v addr.VPN) bool { return t.Radix.Unmap(v) }

// Lookup is the software walk.
func (t *Table) Lookup(v addr.VPN) (pte.Entry, bool) { return t.Radix.Lookup(v) }

func (t *Table) vmaFor(v addr.VPN) *vma {
	for i := range t.vmas {
		if v >= t.vmas[i].lo && v <= t.vmas[i].hi {
			return &t.vmas[i]
		}
	}
	return nil
}

// Release frees the per-VMA contiguous arrays and the underlying radix
// table (process exit).
func (t *Table) Release() {
	for _, v := range t.vmas {
		if !v.prefetchable {
			continue
		}
		pages := uint64(v.hi-v.lo) + 1
		t.mem.Free(v.ptBase, phys.OrderForBytes(pages*pte.Bytes))
		t.mem.Free(v.pmdBase, phys.OrderForBytes(pages/512*pte.Bytes+pte.Bytes))
	}
	t.vmas = nil
	t.Radix.Release()
}

// Walker is the ASAP hardware walker: a radix walker plus the prefetcher.
type Walker struct {
	mmu.Tables[*Table]
	rad *radix.Walker
	// buf is the reusable walk-trace buffer; the embedded radix walker
	// appends into it directly, so composing the prefetches with the
	// validating walk never copies a trace.
	buf mmu.WalkBuf
}

// NewWalker creates the walker (radix PWC sizing from Table 1).
func NewWalker() *Walker {
	return &Walker{rad: radix.NewWalker(32)}
}

// Detach removes a process's table and flushes its radix walker's PWCs.
func (w *Walker) Detach(asid uint16) {
	w.Drop(asid)
	w.rad.Detach(asid)
}

// Name implements mmu.Walker.
func (w *Walker) Name() string { return "asap" }

// Snapshot implements metrics.Source: ASAP walks through a radix walker,
// so its walk-cache counters are the embedded radix PWC's.
func (w *Walker) Snapshot() metrics.Set { return w.rad.Snapshot() }

var _ metrics.Source = (*Walker)(nil)

// Walk implements mmu.Walker. For prefetchable VMAs all requests — the
// radix walk AND the flat PTE/PMD prefetches — are issued in one parallel
// group: latency collapses to the slowest single request, but the traffic
// is the radix walk plus two.
func (w *Walker) Walk(asid uint16, v addr.VPN) mmu.Outcome {
	t, ok := w.Table(asid)
	if !ok {
		return mmu.Outcome{}
	}
	w.buf.Reset()
	if vm := t.vmaFor(v); vm != nil && vm.prefetchable {
		// Seed the collapsed buffer with the flat PTE/PMD prefetches, then
		// let the validating radix walk append its requests into the same
		// parallel group — no intermediate slice, no copy.
		w.buf.Collapse()
		w.buf.Add(addr.SlotPA(vm.ptBase, uint64(v-vm.lo), pte.Bytes))
		w.buf.Add(addr.SlotPA(vm.pmdBase, uint64(v-vm.lo)/512, pte.Bytes))
	}
	// Otherwise plain radix behaviour.
	return w.rad.WalkInto(&w.buf, t.Radix, asid, v)
}

// Lookup implements mmu.Lookuper: the translation resolved through the
// table alone, with no prefetch, PWC probe, fill or trace.
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
