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
	"sort"

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
	// size name the data frame behind it. It is all a process that is only
	// translated or looked up ever needs (frameAt searches it in place), so
	// dataPages is built from it the first time MapPage, UnmapPage or Kill
	// needs frames by VPN, and then it is dropped: at most one of the two
	// is non-empty.
	launched []core.Mapping
	// dataPages maps each page's base VPN → its frame (for freeing); nil
	// until pages() builds it.
	dataPages map[addr.VPN]dataPage
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

// pages returns the VPN → frame map, building it from the launch record on
// first use.
func (p *Process) pages() map[addr.VPN]dataPage {
	if p.dataPages == nil {
		p.dataPages = make(map[addr.VPN]dataPage, len(p.launched))
		for _, m := range p.launched {
			p.dataPages[m.VPN] = dataPage{m.Entry.PPN(), frameOrder(m.Entry.Size())}
		}
		p.launched = nil
	}
	return p.dataPages
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
	pages := p.pages()
	if !addr.Aligned(v, size) {
		return fmt.Errorf("oskernel: map of %#x is not %s-aligned", uint64(v), size)
	}
	if base, _, mapped := p.frameAt(v); mapped {
		return fmt.Errorf("oskernel: map of %#x: frame at %#x already mapped", uint64(v), uint64(base))
	}
	order := frameOrder(size)
	base, err := s.Mem.Alloc(order)
	if err != nil {
		return err
	}
	pages[v] = dataPage{base, order}
	if err := p.pt.Map(v, pte.New(base, size)); err != nil {
		// The table refused the page: give its frame back.
		delete(pages, v)
		s.Mem.Free(base, order)
		return err
	}
	return nil
}

// UnmapPage frees the page that covers v, which may be a huge page's
// interior. For LVM the index keeps the gap (§5.2 "Free").
func (s *System) UnmapPage(asid uint16, v addr.VPN) bool {
	p := s.procs[asid]
	if p == nil {
		return false
	}
	// The record must be the map before the frame is freed: freeing from
	// the launch record would leave it there for Kill to free again.
	p.pages()
	if !p.pt.Unmap(v) {
		return false
	}
	if base, dp, have := p.frameAt(v); have {
		s.Mem.Free(dp.base, dp.order)
		delete(p.dataPages, base)
	}
	return true
}

// frameAt finds the frame record of the page that covers v without
// building the VPN → frame map: while only the launch record is live, the
// last launched page at or below v, if it extends over v; once the map
// exists, v's own 4 KB record, or the record at its 2 MB or 1 GB base if
// that record is a frame of that size.
func (p *Process) frameAt(v addr.VPN) (addr.VPN, dataPage, bool) {
	if p.dataPages == nil {
		ms := p.launched
		i := sort.Search(len(ms), func(i int) bool { return ms[i].VPN > v }) - 1
		if i >= 0 && v-ms[i].VPN < addr.VPN(ms[i].Entry.Size().BaseVPNs()) {
			return ms[i].VPN, dataPage{ms[i].Entry.PPN(), frameOrder(ms[i].Entry.Size())}, true
		}
		return 0, dataPage{}, false
	}
	for _, size := range [...]addr.PageSize{addr.Page4K, addr.Page2M, addr.Page1G} {
		base := addr.AlignDown(v, size)
		if dp, ok := p.dataPages[base]; ok && dp.order == frameOrder(size) {
			return base, dp, true
		}
	}
	return 0, dataPage{}, false
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
	// Free in VPN order: releasing in map-iteration order would scramble
	// the buddy allocator's free lists run to run, making every later
	// allocation — and therefore every later result — nondeterministic.
	pages := p.pages()
	vpns := make([]addr.VPN, 0, len(pages))
	for v := range pages {
		vpns = append(vpns, v)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	for _, v := range vpns {
		dp := pages[v]
		s.Mem.Free(dp.base, dp.order)
	}
	delete(s.procs, asid)
	return nil
}

// Close tears down every launched process in ascending ASID order — the
// deterministic end-of-life path a per-tenant server takes when a session
// ends or the daemon shuts down. The kernel address space (ASID 0) is left
// in place; after Close the System can launch fresh processes against the
// same physical memory.
func (s *System) Close() {
	// Sorted order for the same reason Kill frees pages in VPN order: the
	// buddy allocator's free lists must not depend on map iteration.
	asids := make([]uint16, 0, len(s.procs))
	for asid := range s.procs {
		asids = append(asids, asid)
	}
	sort.Slice(asids, func(i, j int) bool { return asids[i] < asids[j] })
	for _, asid := range asids {
		if asid == KernelASID {
			continue
		}
		_ = s.Kill(asid) // cannot fail: asid came from the live proc table
	}
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
	if _, _, mapped := p.frameAt(v); !mapped {
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
	// One data page per entry of whichever frame record is live.
	minimum := uint64(len(p.launched)+len(p.dataPages)) * pte.Bytes
	if used < minimum {
		return 0
	}
	return used - minimum
}
