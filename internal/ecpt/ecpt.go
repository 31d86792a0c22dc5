// Package ecpt implements Elastic Cuckoo Page Tables (Skarlatos et al.,
// ASPLOS'20), the state-of-the-art hashed page table the paper compares
// against (§2.2, §6.3).
//
// Each page size has its own d-ary (3-way) cuckoo hash table. A hardware
// walk probes all d ways of the relevant table in parallel — a single
// sequential step, but d memory requests, which is exactly the
// latency-for-bandwidth trade the paper measures in Figures 11/12. Cuckoo
// Walk Tables (CWTs) record which page sizes are mapped in each region, and
// the Cuckoo Walk Cache (CWC) caches CWT entries so most walks probe only
// one table's ways.
package ecpt

import (
	"fmt"
	"math/rand"

	"lvm/internal/addr"
	"lvm/internal/blake2b"
	"lvm/internal/metrics"
	"lvm/internal/mmu"
	"lvm/internal/phys"
	"lvm/internal/pte"
	"lvm/internal/stats"
)

// Ways is the cuckoo associativity (Table 1: 3 ways).
const Ways = 3

// MaxKicks bounds displacement chains before a resize.
const MaxKicks = 32

// DefaultInitialEntries is the initial per-way table size (Table 1: 16384
// entries split across ways).
const DefaultInitialEntries = 16384

// MaxLoadFactor triggers a resize when exceeded (the "elastic" part).
const MaxLoadFactor = 0.85

// rehashBatch is how many old slots a resize hashes per Sum64s call: the
// way keys of up to 16 entries, four per call of the vector kernel.
const rehashBatch = 16

// way is one hash table of one cuckoo structure, physically contiguous.
type way struct {
	seed  uint64
	base  addr.PPN
	order int
	slots []pte.Tagged
}

func (w *way) slotPA(i int) addr.PA {
	return addr.SlotPA(w.base, uint64(i), pte.TaggedBytes)
}

// cuckoo is a d-ary cuckoo hash table for one page size.
type cuckoo struct {
	mem  *phys.Memory
	size addr.PageSize
	ways [Ways]*way
	used int
	rng  *rand.Rand

	rehashes stats.Counter
}

func newCuckoo(mem *phys.Memory, size addr.PageSize, perWay int) (*cuckoo, error) {
	c := &cuckoo{mem: mem, size: size, rng: rand.New(rand.NewSource(int64(size) + 12345))}
	for i := range c.ways {
		w, err := allocWay(mem, perWay, uint64(i)*0x9e3779b97f4a7c15+uint64(size))
		if err != nil {
			for _, w := range c.ways[:i] {
				mem.Free(w.base, w.order)
			}
			return nil, err
		}
		c.ways[i] = w
	}
	return c, nil
}

func allocWay(mem *phys.Memory, slots int, seed uint64) (*way, error) {
	order := phys.OrderForBytes(uint64(slots) * pte.TaggedBytes)
	base, err := mem.Alloc(order)
	if err != nil {
		return nil, fmt.Errorf("ecpt: allocating way: %w", err)
	}
	n := int(phys.BlockBytes(order) / pte.TaggedBytes)
	return &way{seed: seed, base: base, order: order, slots: make([]pte.Tagged, n)}, nil
}

// indexes returns tag's slot in each way. It hashes all the ways' keys in
// one blake2b.Sum64s call, which on a host with the vector kernel costs
// about as much as hashing one.
func (c *cuckoo) indexes(tag addr.VPN) [Ways]int {
	var keys, sums [Ways]uint64
	c.wayKeys(keys[:], tag)
	blake2b.Sum64s(sums[:], keys[:])
	return c.slotsOf(sums[:])
}

// wayKeys writes tag's hash key for each way into keys[:Ways].
func (c *cuckoo) wayKeys(keys []uint64, tag addr.VPN) {
	for j, w := range c.ways {
		keys[j] = uint64(tag) ^ w.seed
	}
}

// slotsOf turns the ways' hashes of one tag, sums[:Ways], into its slot in
// each way. A way's slot count is a power of two (a buddy block of 8-byte
// slots), so the mask is the hash modulo that count.
func (c *cuckoo) slotsOf(sums []uint64) [Ways]int {
	var idx [Ways]int
	for j, w := range c.ways {
		idx[j] = int(sums[j] & uint64(len(w.slots)-1))
	}
	return idx
}

func (c *cuckoo) capacity() int {
	n := 0
	for _, w := range c.ways {
		n += len(w.slots)
	}
	return n
}

func (c *cuckoo) loadFactor() float64 {
	return float64(c.used) / float64(c.capacity())
}

// insert places a tagged entry, displacing existing entries cuckoo-style;
// resizes and rehashes when a chain exceeds MaxKicks or the load factor is
// too high.
func (c *cuckoo) insert(tag addr.VPN, e pte.Entry) error {
	if c.loadFactor() > MaxLoadFactor {
		if err := c.resize(); err != nil {
			return err
		}
	}
	item := pte.Tagged{Tag: tag, Entry: e}
	// Overwrite if present. The same indices seed the first placement
	// attempt.
	idx := c.indexes(tag)
	for j, w := range c.ways {
		if i := idx[j]; w.slots[i].Valid() && w.slots[i].Tag == tag {
			w.slots[i] = item
			return nil
		}
	}
	for attempt := 0; attempt < 4; attempt++ {
		homeless, ok := c.tryPlace(item, idx)
		if ok {
			c.used++
			return nil
		}
		// The displacement chain ran out of kicks: some victim is now
		// homeless (the original item itself landed in the table). Resize,
		// which rehashes everything placed, then re-insert the victim.
		if err := c.resize(); err != nil {
			return err
		}
		item, idx = homeless, c.indexes(homeless.Tag)
	}
	return fmt.Errorf("ecpt: insert failed after resize")
}

// tryPlace attempts cuckoo placement of item, whose index in each way is
// idx. It takes the first empty way in way order; with every way occupied
// it evicts from a random way and retries with the displaced item. On
// failure it returns the item left homeless at the end of the displacement
// chain (which is generally NOT the item passed in — earlier links of the
// chain have been placed).
func (c *cuckoo) tryPlace(item pte.Tagged, idx [Ways]int) (pte.Tagged, bool) {
	for kick := 0; kick < MaxKicks; kick++ {
		for j, w := range c.ways {
			if !w.slots[idx[j]].Valid() {
				w.slots[idx[j]] = item
				return pte.Tagged{}, true
			}
		}
		r := c.rng.Intn(Ways)
		w, i := c.ways[r], idx[r]
		item, w.slots[i] = w.slots[i], item
		idx = c.indexes(item.Tag)
	}
	return item, false
}

// resize doubles every way and rehashes — the elastic growth operation.
// If the new ways cannot all be allocated, the table keeps its old ways.
func (c *cuckoo) resize() error {
	c.rehashes.Inc()
	old := c.ways
	for i := range c.ways {
		w, err := allocWay(c.mem, len(old[i].slots)*2, old[i].seed)
		if err != nil {
			for _, w := range c.ways[:i] {
				c.mem.Free(w.base, w.order)
			}
			c.ways = old
			return err
		}
		c.ways[i] = w
	}
	// Re-place the old entries in slot order. Their indexes depend only on
	// their tags and the new way sizes, so each run of rehashBatch old
	// slots is hashed in one Sum64s call before its entries are placed.
	c.used = 0
	var items [rehashBatch]pte.Tagged
	var keys, sums [rehashBatch * Ways]uint64
	for _, ow := range old {
		for lo := 0; lo < len(ow.slots); lo += rehashBatch {
			n := 0
			for _, s := range ow.slots[lo:min(lo+rehashBatch, len(ow.slots))] {
				if s.Valid() {
					items[n] = s
					c.wayKeys(keys[n*Ways:], s.Tag)
					n++
				}
			}
			blake2b.Sum64s(sums[:n*Ways], keys[:n*Ways])
			for k, s := range items[:n] {
				if _, ok := c.tryPlace(s, c.slotsOf(sums[k*Ways:])); !ok {
					return fmt.Errorf("ecpt: rehash failed")
				}
				c.used++
			}
		}
		c.mem.Free(ow.base, ow.order)
	}
	return nil
}

// lookup returns the entry and which way holds it.
func (c *cuckoo) lookup(v addr.VPN) (pte.Entry, bool) {
	idx := c.indexes(addr.AlignDown(v, c.size))
	for j, w := range c.ways {
		if s := w.slots[idx[j]]; s.Matches(v) {
			return s.Entry, true
		}
	}
	return 0, false
}

// remove clears a translation.
func (c *cuckoo) remove(v addr.VPN) bool {
	tag := addr.AlignDown(v, c.size)
	idx := c.indexes(tag)
	for j, w := range c.ways {
		if i := idx[j]; w.slots[i].Valid() && w.slots[i].Tag == tag {
			w.slots[i] = pte.Tagged{}
			c.used--
			return true
		}
	}
	return false
}

// Table is one process's ECPT: one cuckoo structure per page size plus the
// CWTs describing which sizes are present per region.
type Table struct {
	mem *phys.Memory
	// tables holds the 4K and the 2M cuckoo structure, indexed by page
	// size; ECPT has no 1GB table.
	tables [addr.Page2M + 1]*cuckoo
	// cwt maps a 2MB-region number (VPN>>9) to the set of page sizes
	// present in that region; it is itself stored in memory at cwtBase.
	cwt     map[uint64]uint8
	cwtBase addr.PPN
	cwtOrdr int
}

// New creates an empty ECPT. On error it has allocated nothing.
func New(mem *phys.Memory, initialPerWay int) (*Table, error) {
	if initialPerWay <= 0 {
		initialPerWay = DefaultInitialEntries / Ways
	}
	t := &Table{mem: mem, cwt: make(map[uint64]uint8)}
	fail := func(err error) (*Table, error) {
		for _, c := range t.tables {
			if c != nil {
				c.release()
			}
		}
		return nil, err
	}
	for s := range t.tables {
		c, err := newCuckoo(mem, addr.PageSize(s), initialPerWay)
		if err != nil {
			return fail(err)
		}
		t.tables[s] = c
	}
	base, err := mem.Alloc(2) // 16 KB of CWT backing to give walks real PAs
	if err != nil {
		return fail(err)
	}
	t.cwtBase = base
	t.cwtOrdr = 2
	return t, nil
}

func (t *Table) region(v addr.VPN) uint64 { return uint64(v) >> 9 }

// cwtPA returns the memory location of a region's CWT entry (one byte per
// region, packed).
func (t *Table) cwtPA(region uint64) addr.PA {
	span := phys.BlockBytes(t.cwtOrdr)
	return addr.PAOf(t.cwtBase) + addr.PA(region%span)
}

// Map installs a translation.
func (t *Table) Map(v addr.VPN, e pte.Entry) error {
	if int(e.Size()) >= len(t.tables) {
		return fmt.Errorf("ecpt: unsupported page size %s", e.Size())
	}
	c := t.tables[e.Size()]
	tag := addr.AlignDown(v, e.Size())
	if err := c.insert(tag, e); err != nil {
		return err
	}
	// A 4K or 2M mapping lies within one 2MB region: set its size bit in
	// that region's CWT entry.
	t.cwt[t.region(tag)] |= 1 << uint(e.Size())
	return nil
}

// Unmap removes a translation from whichever size table holds it.
func (t *Table) Unmap(v addr.VPN) bool {
	for _, c := range t.tables {
		if c.remove(v) {
			return true
		}
	}
	return false
}

// Lookup is the software walk.
func (t *Table) Lookup(v addr.VPN) (pte.Entry, bool) {
	for _, c := range t.tables {
		if e, ok := c.lookup(v); ok {
			return e, true
		}
	}
	return 0, false
}

// TableBytes returns the physical footprint of all ways of all sizes — the
// over-provisioned hash-table space of §7.3's memory comparison.
func (t *Table) TableBytes() uint64 {
	var b uint64
	for _, c := range t.tables {
		for _, w := range c.ways {
			b += phys.BlockBytes(w.order)
		}
	}
	return b
}

// Rehashes returns the number of elastic resizes performed.
func (t *Table) Rehashes() uint64 {
	var n uint64
	for _, c := range t.tables {
		n += c.rehashes.Value()
	}
	return n
}

// release frees the ways of one cuckoo table.
func (c *cuckoo) release() {
	for _, w := range c.ways {
		c.mem.Free(w.base, w.order)
	}
	c.used = 0
}

// Release returns all cuckoo ways and the CWT block to the allocator; the
// table is unusable afterwards (process exit).
func (t *Table) Release() {
	for _, c := range t.tables {
		c.release()
	}
	clear(t.tables[:])
	t.mem.Free(t.cwtBase, t.cwtOrdr)
	t.cwt = map[uint64]uint8{}
}

// Walker is the hardware ECPT walker with a CWC.
type Walker struct {
	mmu.Tables[*Table]
	// cwcPMD caches CWT entries at 2MB-region granularity; cwcPUD at
	// 1GB-region granularity (Table 1: 16 and 2 entries).
	cwcPMD, cwcPUD *mmu.PWC
	// buf is the reusable walk-trace buffer; Walk outcomes view it and
	// stay valid until the next Walk.
	buf mmu.WalkBuf
}

// NewWalker creates the walker with Table-1 CWC sizing.
func NewWalker() *Walker {
	return &Walker{
		cwcPMD: mmu.NewPWC("cwc-pmd", 16),
		cwcPUD: mmu.NewPWC("cwc-pud", 2),
	}
}

// Detach removes a process's table and flushes its CWC entries (process
// exit).
func (w *Walker) Detach(asid uint16) {
	w.Drop(asid)
	w.cwcPMD.FlushASID(asid)
	w.cwcPUD.FlushASID(asid)
}

// Name implements mmu.Walker.
func (w *Walker) Name() string { return "ecpt" }

// CWCs returns the walk-cache levels for stats.
func (w *Walker) CWCs() (pmd, pud *mmu.PWC) { return w.cwcPMD, w.cwcPUD }

// Snapshot implements metrics.Source: the CWC level counters
// (cwc.pmd.hits, cwc.pud.misses, ...).
func (w *Walker) Snapshot() metrics.Set {
	var s metrics.Set
	s.Merge("cwc.pmd", w.cwcPMD.Snapshot())
	s.Merge("cwc.pud", w.cwcPUD.Snapshot())
	return s
}

var _ metrics.Source = (*Walker)(nil)

// Walk implements mmu.Walker. With CWC section information the walker
// probes the d ways of the right page-size table in parallel; on a CWC
// miss it first fetches the CWT entry, then probes the tables indicated —
// without size information it must probe both sizes (2d requests).
func (w *Walker) Walk(asid uint16, v addr.VPN) mmu.Outcome {
	t, ok := w.Table(asid)
	if !ok {
		return mmu.Outcome{}
	}
	w.buf.Reset()
	b := &w.buf
	region := t.region(v)

	// An empty mask truly means nothing is mapped in the region (the CWT
	// is updated on Map), so no size bit is set and no probe is issued.
	mask := t.cwt[region]
	if !w.cwcPMD.Lookup(asid, region) && !w.cwcPUD.Lookup(asid, region>>9) {
		// CWC miss: fetch the CWT entry from memory, then probe.
		b.AddGroup(t.cwtPA(region))
		w.cwcPMD.Insert(asid, region)
		w.cwcPUD.Insert(asid, region>>9)
	}

	// All indicated page-size tables are probed as one parallel group,
	// 4K before 2M and ways in order; an empty group is dropped. One
	// indexes call per size gives both the probe addresses and the tag
	// matches, and the first matching (size, way) wins.
	b.Group()
	var entry pte.Entry
	found := false
	for _, c := range t.tables {
		if mask&(1<<uint(c.size)) == 0 {
			continue
		}
		idx := c.indexes(addr.AlignDown(v, c.size))
		for j, wy := range c.ways {
			i := idx[j]
			b.Add(wy.slotPA(i))
			if !found && wy.slots[i].Matches(v) {
				entry, found = wy.slots[i].Entry, true
			}
		}
	}
	return b.Outcome(entry, found, mmu.StepCycles)
}

// Lookup implements mmu.Lookuper: the translation resolved through the
// table alone, with no CWC probe, fill or trace.
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
