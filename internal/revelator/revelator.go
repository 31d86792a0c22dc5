// Package revelator implements a Revelator-style speculative translation
// scheme (see PAPERS.md): system software maintains a physically backed
// open-addressing hash table of translations (BLAKE2 at the paper-standard
// 0.6 load factor, as in internal/hashpt), and the hardware resolves an L2
// TLB miss by probing it — usually a single dependent memory request. The
// CPU proceeds with the data access on that speculative translation while a
// conventional radix walk *verifies* it in the background; the verify walk
// rides the mmu verify region, so its latency is charged as max(verify,
// access) rather than added to the critical path.
//
// The OS keeps the hash table and the radix table coherent (every map,
// unmap, and permission change updates both), so speculation never
// misresolves in this model; what remains of the radix walk is its cache
// traffic and its overlapped latency — the cost the scheme pays for being
// architecturally safe. Unmapped addresses miss the hash chain and are
// confirmed by the OS fault path, with no verify walk to overlap.
package revelator

import (
	"fmt"

	"lvm/internal/addr"
	"lvm/internal/blake2b"
	"lvm/internal/metrics"
	"lvm/internal/mmu"
	"lvm/internal/phys"
	"lvm/internal/pte"
	"lvm/internal/radix"
	"lvm/internal/stats"
)

// LoadFactor is the table's target occupancy at build time (the paper's
// hashed-baseline configuration). Dynamic growth may exceed it — probe
// chains lengthen gracefully — but the initial sizing leaves the headroom.
const LoadFactor = 0.6

// slot states: open addressing with tombstones, so unmap keeps later chain
// members reachable. Inserts reuse the first tombstone on their probe path.
const (
	slotEmpty uint8 = iota
	slotLive
	slotDead
)

// Table is one process's Revelator state: the physically backed speculative
// hash table plus the authoritative radix table the verify walks traverse.
// Both are updated on every OS mutation, so they always agree.
type Table struct {
	mem   *phys.Memory
	Radix *radix.Table

	// slots/state mirror the hash region's contents; base/order anchor it
	// in simulated physical memory so every probe has a real PA.
	slots []pte.Tagged
	state []uint8
	base  addr.PPN
	order int
	mask  uint64
	live  int
}

// New creates a table sized so the expected mapping count lands at
// LoadFactor occupancy (minimum 1024 slots).
func New(mem *phys.Memory, expected int) (*Table, error) {
	rt, err := radix.New(mem)
	if err != nil {
		return nil, err
	}
	n := 1024
	for float64(n)*LoadFactor < float64(expected) {
		n *= 2
	}
	order := phys.OrderForBytes(uint64(n) * pte.TaggedBytes)
	base, err := mem.Alloc(order)
	if err != nil {
		rt.Release()
		return nil, fmt.Errorf("revelator: allocating hash table: %w", err)
	}
	return &Table{
		mem:   mem,
		Radix: rt,
		slots: make([]pte.Tagged, n),
		state: make([]uint8, n),
		base:  base,
		order: order,
		mask:  uint64(n - 1),
	}, nil
}

func (t *Table) home(tag addr.VPN) uint64 {
	return blake2b.Sum64(uint64(tag)) & t.mask
}

func (t *Table) slotPA(i uint64) addr.PA {
	return addr.SlotPA(t.base, i, pte.TaggedBytes)
}

// probeSizes orders the per-size probe chains, 4 KB first (mirroring
// hashpt.Lookup). A fixed array, not a literal in the hot path.
var probeSizes = [3]addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G}

// lookup resolves v by probing the chain for each page size, 4 KB first.
// When b is non-nil each probed slot is appended as its own sequential
// group — the probes are dependent loads, and the chain's PAs are what the
// timing walk charges to the caches.
func (t *Table) lookup(b *mmu.WalkBuf, v addr.VPN) (pte.Entry, bool) {
	for _, s := range probeSizes {
		tag := addr.AlignDown(v, s)
		h := t.home(tag)
		for d := uint64(0); d < uint64(len(t.slots)); d++ {
			i := (h + d) & t.mask
			if b != nil {
				b.AddGroup(t.slotPA(i))
			}
			if t.state[i] == slotEmpty {
				break // an empty slot ends the chain
			}
			if t.state[i] == slotLive && t.slots[i].Tag == tag && t.slots[i].Entry.Size() == s {
				return t.slots[i].Entry, true
			}
		}
	}
	return 0, false
}

// insert places or updates a translation, reusing the first tombstone on
// the probe path.
func (t *Table) insert(v addr.VPN, e pte.Entry) error {
	tag := addr.AlignDown(v, e.Size())
	h := t.home(tag)
	firstDead := int64(-1)
	for d := uint64(0); d < uint64(len(t.slots)); d++ {
		i := (h + d) & t.mask
		switch t.state[i] {
		case slotLive:
			if t.slots[i].Tag == tag && t.slots[i].Entry.Size() == e.Size() {
				t.slots[i].Entry = e
				return nil
			}
		case slotDead:
			if firstDead < 0 {
				firstDead = int64(i)
			}
		case slotEmpty:
			if firstDead >= 0 {
				i = uint64(firstDead)
			}
			t.slots[i] = pte.Tagged{Tag: tag, Entry: e}
			t.state[i] = slotLive
			t.live++
			return nil
		}
	}
	if firstDead >= 0 {
		i := uint64(firstDead)
		t.slots[i] = pte.Tagged{Tag: tag, Entry: e}
		t.state[i] = slotLive
		t.live++
		return nil
	}
	return fmt.Errorf("revelator: hash table full (%d slots)", len(t.slots))
}

// remove tombstones the slot holding tag at the given size.
func (t *Table) remove(tag addr.VPN, s addr.PageSize) {
	h := t.home(tag)
	for d := uint64(0); d < uint64(len(t.slots)); d++ {
		i := (h + d) & t.mask
		if t.state[i] == slotEmpty {
			return
		}
		if t.state[i] == slotLive && t.slots[i].Tag == tag && t.slots[i].Entry.Size() == s {
			t.slots[i] = pte.Tagged{}
			t.state[i] = slotDead
			t.live--
			return
		}
	}
}

// Map installs a translation in both structures. A hash-table-full failure
// rolls the radix insert back so the structures never diverge.
func (t *Table) Map(v addr.VPN, e pte.Entry) error {
	if err := t.Radix.Map(v, e); err != nil {
		return err
	}
	if err := t.insert(v, e); err != nil {
		t.Radix.Unmap(v)
		return err
	}
	return nil
}

// Unmap removes a translation from both structures.
func (t *Table) Unmap(v addr.VPN) bool {
	e, found := t.lookup(nil, v)
	ok := t.Radix.Unmap(v)
	if ok && found {
		t.remove(addr.AlignDown(v, e.Size()), e.Size())
	}
	return ok
}

// Lookup is the software walk (the radix table is authoritative; the hash
// mirror always agrees).
func (t *Table) Lookup(v addr.VPN) (pte.Entry, bool) { return t.Radix.Lookup(v) }

// TableBytes returns the physical memory consumed: radix table pages plus
// the hash region.
func (t *Table) TableBytes() uint64 {
	return t.Radix.TableBytes() + phys.BlockBytes(t.order)
}

// Release frees the hash region and the radix table (process exit).
func (t *Table) Release() {
	t.mem.Free(t.base, t.order)
	t.slots = nil
	t.state = nil
	t.Radix.Release()
}

// Walker is the Revelator hardware walker: the speculative hash probe is
// the critical path; the radix verify walk rides the verify region.
type Walker struct {
	mmu.Tables[*Table]
	rad *radix.Walker
	// buf is the reusable walk-trace buffer; the verify walk appends into
	// it after the BeginVerify mark, so composing the trace never copies.
	buf mmu.WalkBuf

	specResolved, specMisses stats.Counter
}

// NewWalker creates the walker (radix PWC sizing from Table 1 for the
// verify walk).
func NewWalker() *Walker {
	return &Walker{rad: radix.NewWalker(32)}
}

// Detach removes a process's table and flushes its radix walker's PWCs.
func (w *Walker) Detach(asid uint16) {
	w.Drop(asid)
	w.rad.Detach(asid)
}

// Name implements mmu.Walker.
func (w *Walker) Name() string { return "revelator" }

// Snapshot implements metrics.Source: speculation counters plus the verify
// walker's PWC counters.
func (w *Walker) Snapshot() metrics.Set {
	s := w.rad.Snapshot()
	s.Counter("spec.resolved", w.specResolved.Value())
	s.Counter("spec.misses", w.specMisses.Value())
	return s
}

var _ metrics.Source = (*Walker)(nil)

// Walk implements mmu.Walker.
func (w *Walker) Walk(asid uint16, v addr.VPN) mmu.Outcome {
	t, ok := w.Table(asid)
	if !ok {
		return mmu.Outcome{}
	}
	w.buf.Reset()
	return w.walkInto(&w.buf, t, asid, v)
}

// walkInto emits one walk's trace into b: the hash probe chain (dependent
// loads, one group per probe) resolves the translation speculatively; the
// radix verify walk lands after the BeginVerify mark so the simulator
// overlaps it with the data access. The walk-cache charge is StepCycles for
// the hash computation plus the verify walk's PWC probes. A hash miss means
// the page is unmapped (the table mirrors the radix exactly): the fault is
// confirmed by the OS, so no verify walk is issued.
func (w *Walker) walkInto(b *mmu.WalkBuf, t *Table, asid uint16, v addr.VPN) mmu.Outcome {
	e, found := t.lookup(b, v)
	if !found {
		w.specMisses.Inc()
		return b.Outcome(0, false, mmu.StepCycles)
	}
	w.specResolved.Inc()
	b.BeginVerify()
	radOut := w.rad.WalkInto(b, t.Radix, asid, v)
	return b.Outcome(e, true, mmu.StepCycles+radOut.WalkCacheCycles)
}

// Lookup implements mmu.Lookuper: the translation resolved through the
// hash table alone, with no verify walk, walk-cache probe or trace.
func (w *Walker) Lookup(asid uint16, v addr.VPN) (pte.Entry, bool) {
	t, ok := w.Table(asid)
	if !ok {
		return 0, false
	}
	return t.lookup(nil, v)
}

// WalkBatch implements mmu.BatchWalker by walking each VPN in turn.
func (w *Walker) WalkBatch(asid uint16, vpns []addr.VPN, bufs *mmu.WalkBatchBuf) {
	mmu.WalkSerial(w, asid, vpns, bufs)
}

var _ mmu.Walker = (*Walker)(nil)
var _ mmu.BatchWalker = (*Walker)(nil)
var _ mmu.Lookuper = (*Walker)(nil)
