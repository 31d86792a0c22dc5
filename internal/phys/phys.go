// Package phys simulates physical memory managed by a Linux-style buddy
// allocator.
//
// It provides the substrate the paper's evaluation depends on in three ways:
//
//  1. Every page-table scheme allocates its tables here, so physical
//     contiguity constraints are real: LVM's leaf training asks the
//     allocator for the next available allocation order (paper §4.3.2) and
//     sizes gapped page tables accordingly.
//  2. The buddy allocator can be aged into datacenter-like fragmentation to
//     reproduce Figure 3 (contiguous-allocatable free memory by block size)
//     and the free-memory-fragmentation-index (FMFI) sweeps of §7.3.
//  3. Data pages for the simulated workloads are allocated here so that
//     PPN assignment reflects a fragmented machine rather than an identity
//     mapping.
package phys

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"lvm/internal/addr"
)

// freeSet is a deterministic free-block set for one buddy order: a bitmap
// over block indices (base PFN >> order) with a lower-bound hint on the
// lowest set bit, so allocation always hands out the lowest-address block.
// Determinism matters — simulation results must be reproducible run to run
// — and the bitmap keeps the per-page launch cost of a tenant machine flat
// (a map-based set dominated serving profiles with hashing and rehash
// churn).
type freeSet struct {
	words []uint64
	shift uint   // block index = base PFN >> shift
	n     int    // set-bit count
	min   uint64 // lower bound on the lowest set block index
}

func newFreeSet(order int, totalPages uint64) *freeSet {
	nblocks := (totalPages + blockPages(order) - 1) >> uint(order)
	return &freeSet{
		words: make([]uint64, (nblocks+63)/64),
		shift: uint(order),
		min:   ^uint64(0),
	}
}

func (f *freeSet) add(b uint64) {
	i := b >> f.shift
	w, bit := i/64, uint(i%64)
	if f.words[w]&(1<<bit) != 0 {
		return
	}
	f.words[w] |= 1 << bit
	f.n++
	if i < f.min {
		f.min = i
	}
}

func (f *freeSet) remove(b uint64) {
	i := b >> f.shift
	w, bit := i/64, uint(i%64)
	if f.words[w]&(1<<bit) != 0 {
		f.words[w] &^= 1 << bit
		f.n--
	}
}

func (f *freeSet) contains(b uint64) bool {
	// Out-of-range probes happen legitimately: Free probes the buddy of the
	// last block, which can lie past the end of a non-power-of-two memory.
	i := b >> f.shift
	if w := i / 64; w < uint64(len(f.words)) {
		return f.words[w]&(1<<uint(i%64)) != 0
	}
	return false
}

func (f *freeSet) len() int { return f.n }

// popMin removes and returns the lowest-address free block. min never
// overshoots the lowest set bit (add lowers it, removals only raise the
// true minimum), so scanning forward from it is exact.
func (f *freeSet) popMin() (uint64, bool) {
	if f.n == 0 {
		return 0, false
	}
	for w := f.min / 64; w < uint64(len(f.words)); w++ {
		if f.words[w] == 0 {
			continue
		}
		bit := uint(bits.TrailingZeros64(f.words[w]))
		i := w*64 + uint64(bit)
		f.words[w] &^= 1 << bit
		f.n--
		f.min = i + 1
		return i << f.shift, true
	}
	return 0, false
}

// MaxOrder is the largest buddy order: order 18 blocks are 1 GB
// (2^18 × 4 KB), matching Linux's MAX_ORDER territory for huge allocations.
const MaxOrder = 18

// ErrNoMemory is returned when no block of the requested order (or larger)
// is free.
var ErrNoMemory = errors.New("phys: out of contiguous memory")

// Memory is a simulated physical address space with a buddy allocator.
// The zero value is not usable; call New.
type Memory struct {
	totalPages uint64
	freePages  uint64
	// freeLists[o] holds the base PFN of every free block of order o.
	freeLists [MaxOrder + 1]*freeSet
	// allocOrder records, per base PFN, order+1 of the block allocated
	// there (0 = no live allocation), for Free validation. A dense slice:
	// one byte per page beats a map by an order of magnitude on the
	// per-tenant launch path.
	allocOrder []int8
	// contiguityCap, when >= 0, caps the order the allocator will hand
	// out, emulating environments where large contiguity is exhausted
	// (the ≤256 KB experiment of §7.3).
	contiguityCap int
}

// New creates a memory of the given size in bytes. The size is rounded down
// to a whole number of base pages; at least one max-order block is required.
func New(totalBytes uint64) *Memory {
	pages := totalBytes >> addr.PageShift
	if pages == 0 {
		panic("phys: memory too small")
	}
	m := &Memory{
		totalPages:    pages,
		freePages:     0,
		allocOrder:    make([]int8, pages),
		contiguityCap: -1,
	}
	for o := range m.freeLists {
		m.freeLists[o] = newFreeSet(o, pages)
	}
	// Seed the free lists greedily with the largest aligned blocks.
	var pfn uint64
	remaining := pages
	for remaining > 0 {
		o := MaxOrder
		for o > 0 && (blockPages(o) > remaining || pfn%blockPages(o) != 0) {
			o--
		}
		m.freeLists[o].add(pfn)
		m.freePages += blockPages(o)
		pfn += blockPages(o)
		remaining -= blockPages(o)
	}
	return m
}

func blockPages(order int) uint64 { return 1 << uint(order) }

// BlockBytes returns the size in bytes of a block of the given order.
func BlockBytes(order int) uint64 { return blockPages(order) << addr.PageShift }

// OrderForBytes returns the smallest order whose block covers n bytes.
func OrderForBytes(n uint64) int {
	for o := 0; o <= MaxOrder; o++ {
		if BlockBytes(o) >= n {
			return o
		}
	}
	return MaxOrder
}

// TotalPages returns the number of base pages in the memory.
func (m *Memory) TotalPages() uint64 { return m.totalPages }

// FreePages returns the number of free base pages.
func (m *Memory) FreePages() uint64 { return m.freePages }

// SetContiguityCap caps the largest order Alloc will satisfy, simulating a
// machine whose large contiguity is exhausted. Pass a negative value to
// remove the cap.
func (m *Memory) SetContiguityCap(order int) { m.contiguityCap = order }

// MaxFreeOrder returns the largest order that currently has a free block,
// honoring the contiguity cap. This is the "next available allocation
// order" query LVM's leaf training performs (paper §4.3.2). Returns -1 when
// memory is exhausted.
func (m *Memory) MaxFreeOrder() int {
	best := -1
	for o := MaxOrder; o >= 0; o-- {
		if m.freeLists[o].len() > 0 {
			best = o
			break
		}
	}
	if best >= 0 && m.contiguityCap >= 0 && best > m.contiguityCap {
		best = m.contiguityCap
	}
	return best
}

// Alloc allocates a block of 2^order pages and returns its base PFN.
func (m *Memory) Alloc(order int) (addr.PPN, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("phys: invalid order %d", order)
	}
	if m.contiguityCap >= 0 && order > m.contiguityCap {
		return 0, ErrNoMemory
	}
	// Find the smallest free order >= requested. The contiguity cap limits
	// the order a caller may *request* (no large allocation succeeds), but
	// small requests may still split larger free blocks, exactly as a real
	// buddy allocator would.
	from := -1
	for o := order; o <= MaxOrder; o++ {
		if m.freeLists[o].len() > 0 {
			from = o
			break
		}
	}
	if from < 0 {
		return 0, ErrNoMemory
	}
	base, ok := m.freeLists[from].popMin()
	if !ok {
		return 0, ErrNoMemory
	}
	// Split down to the requested order, returning the upper halves.
	for o := from; o > order; o-- {
		half := base + blockPages(o-1)
		m.freeLists[o-1].add(half)
	}
	m.allocOrder[base] = int8(order) + 1
	m.freePages -= blockPages(order)
	return addr.PPN(base), nil
}

// AllocExact allocates the specific block [base, base+2^order) if it is
// entirely free. Gapped page tables use this to expand in place: when the
// physically adjacent block is still free, a table can grow without
// scattering (paper §4.3.4 rescaling).
//
// Buddy invariant: a fully free naturally-aligned range is always contained
// in a single free block of equal or larger order (free buddies always
// coalesce), so it suffices to search containers upward.
func (m *Memory) AllocExact(base addr.PPN, order int) error {
	if order < 0 || order > MaxOrder {
		return fmt.Errorf("phys: invalid order %d", order)
	}
	b := uint64(base)
	if b%blockPages(order) != 0 {
		return fmt.Errorf("phys: base %#x not aligned for order %d", b, order)
	}
	if b+blockPages(order) > m.totalPages {
		return ErrNoMemory
	}
	for o := order; o <= MaxOrder; o++ {
		container := b &^ (blockPages(o) - 1)
		if !m.freeLists[o].contains(container) {
			continue
		}
		m.freeLists[o].remove(container)
		// Split the container down, freeing the sibling halves that do
		// not contain the target block.
		cur := container
		for co := o; co > order; co-- {
			half := blockPages(co - 1)
			if b < cur+half {
				// Target is in the lower half; free the upper.
				m.freeLists[co-1].add(cur + half)
			} else {
				// Target is in the upper half; free the lower.
				m.freeLists[co-1].add(cur)
				cur += half
			}
		}
		m.allocOrder[b] = int8(order) + 1
		m.freePages -= blockPages(order)
		return nil
	}
	return ErrNoMemory
}

// Free returns a previously allocated block to the allocator, coalescing
// with free buddies.
func (m *Memory) Free(base addr.PPN, order int) {
	b := uint64(base)
	got := int(m.allocOrder[b]) - 1
	if got != order {
		panic(fmt.Sprintf("phys: bad free of pfn %#x order %d (allocated order %d, ok=%t)", b, order, got, got >= 0))
	}
	m.allocOrder[b] = 0
	m.freePages += blockPages(order)
	for order < MaxOrder {
		buddy := b ^ blockPages(order)
		if !m.freeLists[order].contains(buddy) {
			break
		}
		m.freeLists[order].remove(buddy)
		if buddy < b {
			b = buddy
		}
		order++
	}
	m.freeLists[order].add(b)
}

// ContiguousFreeFraction returns the fraction of free memory that is
// immediately allocatable as a contiguous block of at least the given order
// — the metric plotted in Figure 3.
func (m *Memory) ContiguousFreeFraction(order int) float64 {
	if m.freePages == 0 {
		return 0
	}
	var pages uint64
	for o := order; o <= MaxOrder; o++ {
		pages += uint64(m.freeLists[o].len()) * blockPages(o)
	}
	return float64(pages) / float64(m.freePages)
}

// FMFI returns the free memory fragmentation index at the given order:
// the fraction of free memory NOT usable for an allocation of that order
// (0 = fully defragmented, →1 = fully fragmented). This matches the
// unusable-free-space index of Gorman & Whitcroft used by the paper's
// §7.3 fragmentation sweep (FMFI 0.8 / 0.85 / 0.9).
func (m *Memory) FMFI(order int) float64 {
	if m.freePages == 0 {
		return 1
	}
	return 1 - m.ContiguousFreeFraction(order)
}

// FragmentConfig controls how Fragment ages the allocator.
type FragmentConfig struct {
	// TargetFreeFraction is the fraction of memory left free after aging.
	TargetFreeFraction float64
	// MeanRunPages is the mean length (in pages) of the contiguous free
	// runs the aging process leaves behind. Datacenter-like fragmentation
	// uses runs of a few dozen pages: contiguity survives at the
	// hundreds-of-KB scale but not at MBs (paper Fig. 3).
	MeanRunPages int
	// MaxRunPages caps individual free runs.
	MaxRunPages int
}

// DatacenterFragmentation is the aging profile matching the paper's Meta
// datacenter study: ~25% memory free, free runs averaging 32 pages (128 KB)
// and capped at 512 pages (2 MB).
var DatacenterFragmentation = FragmentConfig{
	TargetFreeFraction: 0.25,
	MeanRunPages:       32,
	MaxRunPages:        512,
}

// Fragment ages the memory into a fragmented state: it fills memory with
// single-page allocations and then frees geometrically distributed runs
// until the target free fraction is reached. The result is a machine with
// plentiful small contiguity and essentially no large contiguity, the
// regime of Figure 3.
func (m *Memory) Fragment(seed int64, cfg FragmentConfig) {
	if cfg.TargetFreeFraction <= 0 || cfg.TargetFreeFraction >= 1 {
		panic("phys: TargetFreeFraction must be in (0,1)")
	}
	if cfg.MeanRunPages < 1 {
		cfg.MeanRunPages = 1
	}
	if cfg.MaxRunPages < cfg.MeanRunPages {
		cfg.MaxRunPages = cfg.MeanRunPages * 8
	}
	rng := rand.New(rand.NewSource(seed))

	// Phase 1: exhaust memory with order-0 allocations.
	held := 0
	for {
		if _, err := m.Alloc(0); err != nil {
			break
		}
		held++
	}

	// Phase 2: free geometric runs of consecutive pages at random
	// positions until the free target is met. Runs of consecutive pages
	// coalesce up to the run length but no further, because neighbours
	// remain allocated. Free clears a page's allocOrder, so a page already
	// freed is skipped like any page not allocated at order 0.
	want := uint64(float64(m.totalPages) * cfg.TargetFreeFraction)
	for m.freePages < want && held > 0 {
		run := 1 + int(rng.ExpFloat64()*float64(cfg.MeanRunPages-1))
		if run > cfg.MaxRunPages {
			run = cfg.MaxRunPages
		}
		start := uint64(rng.Int63n(int64(m.totalPages)))
		for i := 0; i < run && m.freePages < want; i++ {
			if pfn := start + uint64(i); pfn < m.totalPages && m.allocOrder[pfn] == 1 { // a live order-0 allocation
				m.Free(addr.PPN(pfn), 0)
			}
		}
	}
	// The remaining held pages stay allocated, representing resident
	// application data on the aged machine.
}

// FragmentToFMFI ages the memory until the FMFI at the given order meets or
// exceeds the target, used by the §7.3 FMFI-0.8/0.85/0.9 sweep. It works by
// repeatedly aging with progressively smaller free runs.
func (m *Memory) FragmentToFMFI(seed int64, order int, target float64) {
	run := 1 << uint(order)
	for attempt := 0; attempt < 12; attempt++ {
		cfg := FragmentConfig{
			TargetFreeFraction: 0.25,
			MeanRunPages:       run,
			MaxRunPages:        run * 2,
		}
		m.Fragment(seed+int64(attempt), cfg)
		if m.FMFI(order) >= target {
			return
		}
		if run > 1 {
			run /= 2
		}
	}
}
