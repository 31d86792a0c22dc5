// Package oskernel is the operating-system layer of the reproduction: it
// owns physical page allocation, builds and maintains the page-table
// structure of whichever scheme is under evaluation, applies the THP
// policy, exposes ASLR normalization to LVM's walker (§5.2), and accounts
// the software management cost (§7.3 "LVM Overheads in the OS").
//
// It replaces the paper's Linux 5.15 extensions + userspace LVM agent: the
// same map/unmap event stream drives the same index operations.
package oskernel

import (
	"fmt"
	"slices"

	"lvm/internal/addr"
	"lvm/internal/core"
	"lvm/internal/mmu"
	"lvm/internal/phys"
	"lvm/internal/pte"
	"lvm/internal/radix"
	"lvm/internal/vas"
)

// Scheme selects the page-table structure.
type Scheme string

// Supported schemes.
const (
	SchemeRadix   Scheme = "radix"
	SchemeECPT    Scheme = "ecpt"
	SchemeLVM     Scheme = "lvm"
	SchemeIdeal   Scheme = "ideal"
	SchemeFPT     Scheme = "fpt"
	SchemeASAP    Scheme = "asap"
	SchemeMidgard Scheme = "midgard" // radix tables; walk gating done by the simulator
	// SchemeVictima parks TLB-extending translation entries in the modeled
	// L2 (evicted under cache pressure); SchemeRevelator resolves misses
	// speculatively from a hash table with an overlapped radix verify walk.
	SchemeVictima   Scheme = "victima"
	SchemeRevelator Scheme = "revelator"
)

// AllSchemes lists every supported scheme.
func AllSchemes() []Scheme {
	return []Scheme{SchemeRadix, SchemeECPT, SchemeLVM, SchemeIdeal, SchemeFPT, SchemeASAP, SchemeMidgard,
		SchemeVictima, SchemeRevelator}
}

// System is one simulated machine's OS state for a single scheme.
type System struct {
	Mem    *phys.Memory
	Scheme Scheme

	walker walker
	procs  map[uint16]*Process

	// Shared kernel address space (§5.2): one structure for all processes.
	kernelInstalled bool
	kernelIx        *core.Index
	kernelMappings  int
}

// Process is one launched address space.
type Process struct {
	ASID  uint16
	Space *vas.AddressSpace
	THP   bool
	// Norm maps VPNs onto LVM's normalized space (§5.2); nil for other
	// schemes.
	Norm *vas.Normalizer

	pt pageTable

	// MgmtCycles accumulates the software cost of page-table management.
	MgmtCycles uint64
	// launched is launch's VPN-sorted mapping record: each entry's PPN and
	// size name the data frame behind it. Unmapping a launched page clears
	// its present bit in place and keeps its size, so the record stays
	// sorted for frameAt's search, nothing is copied when a process first
	// changes, and a page mapped again at its launch VPN and size takes its
	// slot back.
	launched []core.Mapping
	// unmapped counts launched's entries whose present bit is clear.
	unmapped int
	// grown maps the base VPN of every other page mapped after launch to
	// its frame; nil until the first such page.
	grown map[addr.VPN]dataPage
}

// LVMIndex returns the process's learned index (nil for other schemes).
func (p *Process) LVMIndex() *core.Index {
	if t, ok := p.pt.(*lvmTable); ok {
		return t.ix
	}
	return nil
}

type dataPage struct {
	base  addr.PPN
	order int
}

// frameOrder is the buddy order of the data frame behind a page of the
// given size.
func frameOrder(size addr.PageSize) int {
	switch size {
	case addr.Page2M:
		return 9
	case addr.Page1G:
		return phys.MaxOrder
	}
	return 0
}

// HWConfig sizes the per-scheme walk caches. The zero value means
// Table-1 defaults.
type HWConfig struct {
	// PWCEntriesPerLevel sizes each of radix's three PWC levels (Table 1:
	// 32).
	PWCEntriesPerLevel int
	// LWCEntries sizes LVM's walk cache (Table 1: 16). The LWC does not
	// scale with memory footprint — that independence is the property
	// §7.3 demonstrates.
	LWCEntries int
}

// DefaultHWConfig returns Table-1 walk-cache sizing.
func DefaultHWConfig() HWConfig {
	return HWConfig{PWCEntriesPerLevel: 32, LWCEntries: 16}
}

// NewSystem creates the OS for one scheme over the given physical memory
// with Table-1 walk caches.
func NewSystem(mem *phys.Memory, scheme Scheme) *System {
	return NewSystemHW(mem, scheme, DefaultHWConfig())
}

// NewSystemHW creates the OS with explicit walk-cache sizing.
func NewSystemHW(mem *phys.Memory, scheme Scheme, hw HWConfig) *System {
	if hw.PWCEntriesPerLevel == 0 {
		hw.PWCEntriesPerLevel = 32
	}
	if hw.LWCEntries == 0 {
		hw.LWCEntries = 16
	}
	ops, ok := schemes[scheme]
	if !ok {
		panic(fmt.Sprintf("oskernel: unknown scheme %q", scheme))
	}
	return &System{Mem: mem, Scheme: scheme, walker: ops.walker(hw), procs: make(map[uint16]*Process)}
}

// Walker returns the scheme's hardware walker.
func (s *System) Walker() mmu.Walker { return s.walker }

// LVMWalker returns the LVM walker (nil for other schemes), for LWC stats.
func (s *System) LVMWalker() *core.HWWalker {
	w, _ := s.walker.(*core.HWWalker)
	return w
}

// RadixWalker returns the radix walker (nil for other schemes).
func (s *System) RadixWalker() *radix.Walker {
	w, _ := s.walker.(*radix.Walker)
	return w
}

// Process returns a launched process by ASID.
func (s *System) Process(asid uint16) *Process { return s.procs[asid] }

// Launch creates a process: physical frames are allocated for every mapped
// page (the paper's workloads run at steady state, so we map eagerly), the
// scheme's translation structure is built, and the walker is attached.
// Failures come back wrapped with the ASID and scheme so callers several
// layers up can report which launch failed.
func (s *System) Launch(asid uint16, space *vas.AddressSpace, thp bool) (*Process, error) {
	p, err := s.launch(asid, space, thp)
	if err != nil {
		return nil, fmt.Errorf("oskernel: launch asid=%d scheme=%s: %w", asid, s.Scheme, err)
	}
	return p, nil
}

func (s *System) launch(asid uint16, space *vas.AddressSpace, thp bool) (*Process, error) {
	if asid == KernelASID {
		return nil, fmt.Errorf("ASID %d is reserved for the kernel", asid)
	}
	if s.procs[asid] != nil {
		return nil, fmt.Errorf("ASID %d is already live", asid)
	}
	p := &Process{ASID: asid, Space: space, THP: thp}
	mappings, err := s.allocFrames(space.Translations(thp))
	var pt pageTable
	if err == nil {
		pt, err = schemes[s.Scheme].attach(s, p, mappings)
	}
	if err != nil {
		// Undo in Kill's order: the table, then the frames by VPN.
		if pt != nil {
			pt.Release()
		}
		for _, m := range mappings {
			s.Mem.Free(m.Entry.PPN(), frameOrder(m.Entry.Size()))
		}
		return nil, err
	}
	p.pt = pt
	p.launched = mappings
	s.procs[asid] = p
	return p, nil
}

// allocFrames allocates a data frame for every translation, in VPN order.
// 2 MB translations need an order-9 block; if fragmentation denies it, the
// OS falls back to 4 KB pages exactly as Linux THP does. On failure it
// returns the mappings allocated so far with the error.
func (s *System) allocFrames(trs []vas.Translation) ([]core.Mapping, error) {
	mappings := make([]core.Mapping, 0, len(trs))
	for _, tr := range trs {
		if tr.Size == addr.Page2M {
			if base, err := s.Mem.Alloc(9); err == nil {
				mappings = append(mappings, core.Mapping{VPN: tr.VPN, Entry: pte.New(base, addr.Page2M)})
				continue
			}
			for i := addr.VPN(0); i < 512; i++ {
				base, err := s.Mem.Alloc(0)
				if err != nil {
					return mappings, fmt.Errorf("out of memory mapping %#x: %w", uint64(tr.VPN+i), err)
				}
				mappings = append(mappings, core.Mapping{VPN: tr.VPN + i, Entry: pte.New(base, addr.Page4K)})
			}
			continue
		}
		base, err := s.Mem.Alloc(frameOrder(tr.Size))
		if err != nil {
			return mappings, fmt.Errorf("out of memory mapping %#x: %w", uint64(tr.VPN), err)
		}
		mappings = append(mappings, core.Mapping{VPN: tr.VPN, Entry: pte.New(base, tr.Size)})
	}
	return mappings, nil
}

// MapPage is the page-fault path for dynamic growth: allocate a frame and
// insert the translation. v must be aligned to size and must not fall
// inside a page that is already mapped.
func (s *System) MapPage(asid uint16, v addr.VPN, size addr.PageSize) error {
	p := s.procs[asid]
	if p == nil {
		return fmt.Errorf("oskernel: no process %d", asid)
	}
	if !addr.Aligned(v, size) {
		return fmt.Errorf("oskernel: map of %#x is not %s-aligned", uint64(v), size)
	}
	if base, _, _, mapped := p.frameAt(v); mapped {
		return fmt.Errorf("oskernel: map of %#x: frame at %#x already mapped", uint64(v), uint64(base))
	}
	order := frameOrder(size)
	base, err := s.Mem.Alloc(order)
	if err != nil {
		return err
	}
	if err := p.pt.Map(v, pte.New(base, size)); err != nil {
		// The table refused the page: give its frame back.
		s.Mem.Free(base, order)
		return err
	}
	// Nothing covers v, so a launched entry at v is an unmapped one. It
	// takes the page back only at its own size, which keeps the launched
	// pages disjoint for frameAt's search.
	if at := p.launchedAt(v); at >= 0 && p.launched[at].VPN == v && p.launched[at].Entry.Size() == size {
		p.launched[at].Entry = pte.New(base, size)
		p.unmapped--
		return nil
	}
	if p.grown == nil {
		p.grown = make(map[addr.VPN]dataPage)
	}
	p.grown[v] = dataPage{base, order}
	return nil
}

// UnmapPage frees the page that covers v, which may be a huge page's
// interior. For LVM the index keeps the gap (§5.2 "Free").
func (s *System) UnmapPage(asid uint16, v addr.VPN) bool {
	p := s.procs[asid]
	if p == nil {
		return false
	}
	if !p.pt.Unmap(v) {
		return false
	}
	if base, dp, at, have := p.frameAt(v); have {
		s.Mem.Free(dp.base, dp.order)
		if at < 0 {
			delete(p.grown, base)
		} else {
			p.launched[at].Entry &^= pte.FlagPresent
			p.unmapped++
		}
	}
	return true
}

// frameAt finds the frame record of the page that covers v: v's own 4 KB
// record, or the record at its 2 MB or 1 GB base if that record is a frame
// of that size, looking in both the launch record and the grown map. at
// is the record's index in launched, or -1 for a grown page. Launched
// pages are aligned and disjoint, so the one launched page that can cover
// v is the last at or below it.
func (p *Process) frameAt(v addr.VPN) (base addr.VPN, dp dataPage, at int, ok bool) {
	ms := p.launched
	at = p.launchedAt(v)
	if at >= 0 && (!ms[at].Entry.Present() || v-ms[at].VPN >= addr.VPN(ms[at].Entry.Size().BaseVPNs())) {
		at = -1
	}
	for _, size := range [...]addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G} {
		if at >= 0 && ms[at].Entry.Size() == size {
			return ms[at].VPN, dataPage{ms[at].Entry.PPN(), frameOrder(size)}, at, true
		}
		base := addr.AlignDown(v, size)
		if dp, ok := p.grown[base]; ok && dp.order == frameOrder(size) {
			return base, dp, -1, true
		}
	}
	return 0, dataPage{}, -1, false
}

// launchedAt returns the index of the last launched entry at or below v,
// or -1.
func (p *Process) launchedAt(v addr.VPN) int {
	ms := p.launched
	lo, hi := 0, len(ms)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ms[mid].VPN <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// ProtectableFlags are the entry bits Protect may change: permission and
// accessed/dirty state. Present, size, and PPN bits are never touched.
const ProtectableFlags = pte.FlagWritable | pte.FlagUser | pte.FlagAccessed | pte.FlagDirty

// Protect applies an mprotect-style flag change to one mapped page: bits
// in set are raised, then bits in clear are dropped (both masked to
// ProtectableFlags). For LVM this is the paper's software-walk
// modification path (§5.1's OS management of in-place PTEs); for the
// baselines the entry is re-installed in place. Returns false if the page
// is not mapped.
func (s *System) Protect(asid uint16, v addr.VPN, set, clear pte.Entry) bool {
	p := s.procs[asid]
	if p == nil {
		return false
	}
	set &= ProtectableFlags
	clear &= ProtectableFlags
	if fs, ok := p.pt.(flagSetter); ok {
		return fs.SetFlags(v, set, clear)
	}
	e, ok := p.pt.Lookup(v)
	if !ok {
		return false
	}
	ne := (e | set) &^ clear
	if ne == e {
		return true
	}
	return p.pt.Map(addr.AlignDown(v, e.Size()), ne) == nil
}

// Kill terminates a process: every translation structure is returned to
// the physical allocator, the process's data frames are freed, and the
// hardware walker drops its tables and per-ASID walk-cache entries. The
// kernel's shared index (ASID 0) cannot be killed. Returns an error for
// unknown ASIDs so double-kills surface as bugs.
func (s *System) Kill(asid uint16) error {
	if asid == KernelASID {
		return fmt.Errorf("oskernel: cannot kill the kernel address space")
	}
	p := s.procs[asid]
	if p == nil {
		return fmt.Errorf("oskernel: kill of unknown ASID %d", asid)
	}
	p.pt.Release()
	s.walker.Detach(asid)
	// Free in VPN order, merging the launch record with the sorted grown
	// pages: never in map-iteration order, which would make the buddy
	// allocator's split/merge history differ run to run.
	grown := make([]addr.VPN, 0, len(p.grown))
	for v := range p.grown {
		grown = append(grown, v)
	}
	slices.Sort(grown)
	freeGrown := func(v addr.VPN) {
		dp := p.grown[v]
		s.Mem.Free(dp.base, dp.order)
	}
	for _, m := range p.launched {
		if !m.Entry.Present() {
			continue
		}
		for ; len(grown) > 0 && grown[0] < m.VPN; grown = grown[1:] {
			freeGrown(grown[0])
		}
		s.Mem.Free(m.Entry.PPN(), frameOrder(m.Entry.Size()))
	}
	for _, v := range grown {
		freeGrown(v)
	}
	delete(s.procs, asid)
	return nil
}

// SoftwareLookup is the OS's own walk (e.g. for permission changes). Like
// Linux's VMA check before a page-table walk (§5), it first asks the
// process's frame record whether any page covers v, and walks the table
// only if one does: an unmapped VPN never reaches LVM's exhaustive miss
// path.
func (s *System) SoftwareLookup(asid uint16, v addr.VPN) (pte.Entry, bool) {
	p := s.procs[asid]
	if p == nil {
		return 0, false
	}
	if _, _, _, mapped := p.frameAt(v); !mapped {
		return 0, false
	}
	return p.pt.Lookup(v)
}

// TableOverheadBytes returns the physical memory the scheme uses beyond
// the 8-byte-per-translation minimum (§7.3 "Memory Consumption").
func (s *System) TableOverheadBytes(asid uint16) uint64 {
	p := s.procs[asid]
	if p == nil {
		return 0
	}
	ts, ok := p.pt.(tableSizer)
	if !ok {
		return 0
	}
	used := ts.TableBytes()
	// One 8-byte entry per live page.
	minimum := uint64(len(p.launched)-p.unmapped+len(p.grown)) * pte.Bytes
	if used < minimum {
		return 0
	}
	return used - minimum
}
