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
	"lvm/internal/asap"
	"lvm/internal/core"
	"lvm/internal/ecpt"
	"lvm/internal/fpt"
	"lvm/internal/ideal"
	"lvm/internal/mmu"
	"lvm/internal/phys"
	"lvm/internal/pte"
	"lvm/internal/radix"
	"lvm/internal/revelator"
	"lvm/internal/vas"
	"lvm/internal/victima"
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

// MgmtCosts model the software cost, in cycles, of LVM maintenance
// operations (§7.3 reports retrains < 1.9 ms and total management ~1.17%
// of runtime; these constants land in that regime at 2 GHz).
type MgmtCosts struct {
	InsertCycles       uint64
	PerKeyRetrain      uint64
	PerKeyRebuild      uint64
	EdgeExpansionFixed uint64
}

// DefaultMgmtCosts is the standard cost model.
func DefaultMgmtCosts() MgmtCosts {
	return MgmtCosts{
		InsertCycles:       150,
		PerKeyRetrain:      40,
		PerKeyRebuild:      60,
		EdgeExpansionFixed: 2000,
	}
}

// System is one simulated machine's OS state for a single scheme.
type System struct {
	Mem    *phys.Memory
	Scheme Scheme

	LVMParams core.Params
	Costs     MgmtCosts

	radWalker     *radix.Walker
	ecptWalker    *ecpt.Walker
	lvmWalker     *core.HWWalker
	idealWalker   *ideal.Walker
	fptWalker     *fpt.Walker
	asapWalker    *asap.Walker
	victimaWalker *victima.Walker
	revWalker     *revelator.Walker

	procs map[uint16]*Process

	// Shared kernel address space (§5.2): one structure for all processes.
	kernelInstalled bool
	kernelIx        *core.Index
	kernelMappings  int
}

// newRadixFrom builds a radix table from core mappings (kernel install).
func newRadixFrom(s *System, ms []core.Mapping) (*radix.Table, error) {
	t, err := radix.New(s.Mem)
	if err != nil {
		return nil, err
	}
	for _, m := range ms {
		if err := t.Map(m.VPN, m.Entry); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Process is one launched address space.
type Process struct {
	ASID  uint16
	Space *vas.AddressSpace
	THP   bool
	Norm  *vas.Normalizer

	RadixT   *radix.Table
	EcptT    *ecpt.Table
	LvmIx    *core.Index
	IdealT   *ideal.Table
	FptT     *fpt.Table
	AsapT    *asap.Table
	VictimaT *victima.Table
	RevT     *revelator.Table

	// MgmtCycles accumulates the software cost of page-table management.
	MgmtCycles uint64
	// launched is launch's VPN-sorted mapping record: each entry's PPN and
	// size name the data frame behind it. It is all a process that is only
	// translated ever needs, so dataPages is built from it the first time
	// MapPage, UnmapPage or Kill needs frames by VPN, and then it is
	// dropped: at most one of the two is non-empty.
	launched []mapping
	// dataPages maps VPN → allocation (for freeing); nil until pages()
	// builds it.
	dataPages map[addr.VPN]dataPage
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
			p.dataPages[m.vpn] = dataPage{m.e.PPN(), frameOrder(m.e.Size())}
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
	s := &System{
		Mem:       mem,
		Scheme:    scheme,
		LVMParams: core.DefaultParams(),
		Costs:     DefaultMgmtCosts(),
		procs:     make(map[uint16]*Process),
	}
	switch scheme {
	case SchemeRadix, SchemeMidgard:
		s.radWalker = radix.NewWalker(hw.PWCEntriesPerLevel)
	case SchemeECPT:
		s.ecptWalker = ecpt.NewWalker()
	case SchemeLVM:
		s.lvmWalker = core.NewHWWalker(hw.LWCEntries)
	case SchemeIdeal:
		s.idealWalker = ideal.NewWalker()
	case SchemeFPT:
		s.fptWalker = fpt.NewWalker()
	case SchemeASAP:
		s.asapWalker = asap.NewWalker()
	case SchemeVictima:
		s.victimaWalker = victima.NewWalker()
	case SchemeRevelator:
		s.revWalker = revelator.NewWalker()
	default:
		panic(fmt.Sprintf("oskernel: unknown scheme %q", scheme))
	}
	return s
}

// Walker returns the scheme's hardware walker.
func (s *System) Walker() mmu.Walker {
	switch s.Scheme {
	case SchemeRadix, SchemeMidgard:
		return s.radWalker
	case SchemeECPT:
		return s.ecptWalker
	case SchemeLVM:
		return s.lvmWalker
	case SchemeIdeal:
		return s.idealWalker
	case SchemeFPT:
		return s.fptWalker
	case SchemeASAP:
		return s.asapWalker
	case SchemeVictima:
		return s.victimaWalker
	case SchemeRevelator:
		return s.revWalker
	}
	return nil
}

// LVMWalker returns the LVM walker (nil for other schemes), for LWC stats.
func (s *System) LVMWalker() *core.HWWalker { return s.lvmWalker }

// RadixWalker returns the radix walker (nil for other schemes).
func (s *System) RadixWalker() *radix.Walker { return s.radWalker }

// ECPTWalker returns the ECPT walker (nil for other schemes).
func (s *System) ECPTWalker() *ecpt.Walker { return s.ecptWalker }

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
	trs := space.Translations(thp)
	p := &Process{ASID: asid, Space: space, THP: thp}

	// Allocate physical frames. 2 MB translations need an order-9 block;
	// if fragmentation denies it, the OS falls back to 4 KB pages exactly
	// as Linux THP does.
	mappings := make([]mapping, 0, len(trs))
	for _, tr := range trs {
		if tr.Size == addr.Page2M {
			if base, err := s.Mem.Alloc(9); err == nil {
				mappings = append(mappings, mapping{tr.VPN, pte.New(base, addr.Page2M)})
				continue
			}
			for i := addr.VPN(0); i < 512; i++ {
				base, err := s.Mem.Alloc(0)
				if err != nil {
					return nil, fmt.Errorf("out of memory mapping %#x: %w", uint64(tr.VPN+i), err)
				}
				mappings = append(mappings, mapping{tr.VPN + i, pte.New(base, addr.Page4K)})
			}
			continue
		}
		base, err := s.Mem.Alloc(frameOrder(tr.Size))
		if err != nil {
			return nil, fmt.Errorf("out of memory mapping %#x: %w", uint64(tr.VPN), err)
		}
		mappings = append(mappings, mapping{tr.VPN, pte.New(base, tr.Size)})
	}

	if err := s.buildTables(p, mappings); err != nil {
		return nil, err
	}
	p.launched = mappings
	s.procs[asid] = p
	return p, nil
}

type mapping struct {
	vpn addr.VPN
	e   pte.Entry
}

func (s *System) buildTables(p *Process, mappings []mapping) error {
	switch s.Scheme {
	case SchemeRadix, SchemeMidgard:
		t, err := radix.New(s.Mem)
		if err != nil {
			return err
		}
		for _, m := range mappings {
			if err := t.Map(m.vpn, m.e); err != nil {
				return err
			}
		}
		p.RadixT = t
		s.radWalker.Attach(p.ASID, t)

	case SchemeECPT:
		t, err := ecpt.New(s.Mem, 0)
		if err != nil {
			return err
		}
		for _, m := range mappings {
			if err := t.Map(m.vpn, m.e); err != nil {
				return err
			}
		}
		p.EcptT = t
		s.ecptWalker.Attach(p.ASID, t)

	case SchemeLVM:
		p.Norm = vas.NewNormalizer(p.Space)
		ms := make([]core.Mapping, len(mappings))
		for i, m := range mappings {
			ms[i] = core.Mapping{VPN: p.Norm.Normalize(m.vpn), Entry: m.e}
		}
		ix, err := core.Build(s.Mem, ms, s.LVMParams)
		if err != nil {
			return err
		}
		p.LvmIx = ix
		p.MgmtCycles += uint64(len(ms)) * s.Costs.PerKeyRebuild // initial training
		s.lvmWalker.AttachNormalized(p.ASID, ix, p.Norm.Normalize)

	case SchemeIdeal:
		t, err := ideal.New(s.Mem, len(mappings))
		if err != nil {
			return err
		}
		for _, m := range mappings {
			t.Map(m.vpn, m.e)
		}
		p.IdealT = t
		s.idealWalker.Attach(p.ASID, t)

	case SchemeFPT:
		t, err := fpt.New(s.Mem)
		if err != nil {
			return err
		}
		for _, m := range mappings {
			if err := t.Map(m.vpn, m.e); err != nil {
				return err
			}
		}
		p.FptT = t
		s.fptWalker.Attach(p.ASID, t)

	case SchemeASAP:
		t, err := asap.New(s.Mem)
		if err != nil {
			return err
		}
		for _, r := range p.Space.Regions {
			// Best-effort: unprefetchable VMAs degrade to radix walks.
			_ = t.AddVMA(r.Base, r.Base+addr.VPN(r.Span)-1)
		}
		for _, m := range mappings {
			if err := t.Map(m.vpn, m.e); err != nil {
				return err
			}
		}
		p.AsapT = t
		s.asapWalker.Attach(p.ASID, t)

	case SchemeVictima:
		t, err := victima.New(s.Mem)
		if err != nil {
			return err
		}
		for _, m := range mappings {
			if err := t.Map(m.vpn, m.e); err != nil {
				return err
			}
		}
		p.VictimaT = t
		s.victimaWalker.Attach(p.ASID, t)

	case SchemeRevelator:
		t, err := revelator.New(s.Mem, len(mappings))
		if err != nil {
			return err
		}
		for _, m := range mappings {
			if err := t.Map(m.vpn, m.e); err != nil {
				return err
			}
		}
		p.RevT = t
		s.revWalker.Attach(p.ASID, t)
	}
	return nil
}

// MapPage is the page-fault path for dynamic growth: allocate a frame and
// insert the translation.
func (s *System) MapPage(asid uint16, v addr.VPN, size addr.PageSize) error {
	p := s.procs[asid]
	if p == nil {
		return fmt.Errorf("oskernel: no process %d", asid)
	}
	order := frameOrder(size)
	base, err := s.Mem.Alloc(order)
	if err != nil {
		return err
	}
	p.pages()[v] = dataPage{base, order}
	e := pte.New(base, size)

	switch s.Scheme {
	case SchemeRadix, SchemeMidgard:
		return p.RadixT.Map(v, e)
	case SchemeECPT:
		return p.EcptT.Map(v, e)
	case SchemeIdeal:
		p.IdealT.Map(v, e)
		return nil
	case SchemeFPT:
		return p.FptT.Map(v, e)
	case SchemeASAP:
		return p.AsapT.Map(v, e)
	case SchemeVictima:
		return p.VictimaT.Map(v, e)
	case SchemeRevelator:
		return p.RevT.Map(v, e)
	case SchemeLVM:
		before := p.LvmIx.Stats()
		err := p.LvmIx.Insert(core.Mapping{VPN: p.Norm.Normalize(v), Entry: e})
		after := p.LvmIx.Stats()
		p.MgmtCycles += s.Costs.InsertCycles
		if after.Retrains > before.Retrains {
			p.MgmtCycles += uint64(p.LvmIx.MappedPages()) * s.Costs.PerKeyRetrain / uint64(p.LvmIx.LeafCount())
		}
		if after.Rebuilds > before.Rebuilds {
			p.MgmtCycles += uint64(p.LvmIx.MappedPages()) * s.Costs.PerKeyRebuild
		}
		if after.EdgeExpansions > before.EdgeExpansions {
			p.MgmtCycles += s.Costs.EdgeExpansionFixed
		}
		return err
	}
	return fmt.Errorf("oskernel: unsupported scheme")
}

// UnmapPage frees a page. For LVM the index keeps the gap (§5.2 "Free").
func (s *System) UnmapPage(asid uint16, v addr.VPN) bool {
	p := s.procs[asid]
	if p == nil {
		return false
	}
	ok := false
	switch s.Scheme {
	case SchemeRadix, SchemeMidgard:
		ok = p.RadixT.Unmap(v)
	case SchemeECPT:
		ok = p.EcptT.Unmap(v)
	case SchemeIdeal:
		ok = p.IdealT.Unmap(v)
	case SchemeFPT:
		ok = p.FptT.Unmap(v)
	case SchemeASAP:
		ok = p.AsapT.Unmap(v)
	case SchemeVictima:
		ok = p.VictimaT.Unmap(v)
	case SchemeRevelator:
		ok = p.RevT.Unmap(v)
	case SchemeLVM:
		ok = p.LvmIx.Free(p.Norm.Normalize(v))
	}
	if ok {
		pages := p.pages()
		if dp, have := pages[v]; have {
			s.Mem.Free(dp.base, dp.order)
			delete(pages, v)
		}
	}
	return ok
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
	if s.Scheme == SchemeLVM {
		return p.LvmIx.SetFlags(p.Norm.Normalize(v), set, clear)
	}
	e, ok := s.SoftwareLookup(asid, v)
	if !ok {
		return false
	}
	ne := (e | set) &^ clear
	if ne == e {
		return true
	}
	aligned := addr.AlignDown(v, e.Size())
	var err error
	switch s.Scheme {
	case SchemeRadix, SchemeMidgard:
		err = p.RadixT.Map(aligned, ne)
	case SchemeECPT:
		err = p.EcptT.Map(aligned, ne)
	case SchemeIdeal:
		p.IdealT.Map(aligned, ne)
	case SchemeFPT:
		err = p.FptT.Map(aligned, ne)
	case SchemeASAP:
		err = p.AsapT.Map(aligned, ne)
	case SchemeVictima:
		err = p.VictimaT.Map(aligned, ne)
	case SchemeRevelator:
		err = p.RevT.Map(aligned, ne)
	}
	return err == nil
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
	switch s.Scheme {
	case SchemeRadix, SchemeMidgard:
		p.RadixT.Release()
		s.radWalker.Detach(asid)
	case SchemeECPT:
		p.EcptT.Release()
		s.ecptWalker.Detach(asid)
	case SchemeIdeal:
		p.IdealT.Release()
		s.idealWalker.Detach(asid)
	case SchemeFPT:
		p.FptT.Release()
		s.fptWalker.Detach(asid)
	case SchemeASAP:
		p.AsapT.Release()
		s.asapWalker.Detach(asid)
	case SchemeVictima:
		p.VictimaT.Release()
		s.victimaWalker.Detach(asid)
	case SchemeRevelator:
		p.RevT.Release()
		s.revWalker.Detach(asid)
	case SchemeLVM:
		p.LvmIx.Release()
		s.lvmWalker.Detach(asid)
	}
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

// SoftwareLookup is the OS's own walk (e.g. for permission changes).
func (s *System) SoftwareLookup(asid uint16, v addr.VPN) (pte.Entry, bool) {
	p := s.procs[asid]
	if p == nil {
		return 0, false
	}
	switch s.Scheme {
	case SchemeRadix, SchemeMidgard:
		return p.RadixT.Lookup(v)
	case SchemeECPT:
		return p.EcptT.Lookup(v)
	case SchemeIdeal:
		return p.IdealT.Lookup(v)
	case SchemeFPT:
		return p.FptT.Lookup(v)
	case SchemeASAP:
		return p.AsapT.Lookup(v)
	case SchemeVictima:
		return p.VictimaT.Lookup(v)
	case SchemeRevelator:
		return p.RevT.Lookup(v)
	case SchemeLVM:
		r := p.LvmIx.Walk(p.Norm.Normalize(v))
		return r.Entry, r.Found
	}
	return 0, false
}

// TableOverheadBytes returns the physical memory the scheme uses beyond
// the 8-byte-per-translation minimum (§7.3 "Memory Consumption").
func (s *System) TableOverheadBytes(asid uint16) uint64 {
	p := s.procs[asid]
	if p == nil {
		return 0
	}
	// One data page per entry of whichever frame record is live.
	minimum := uint64(len(p.launched)+len(p.dataPages)) * pte.Bytes
	var used uint64
	switch s.Scheme {
	case SchemeRadix, SchemeMidgard:
		used = p.RadixT.TableBytes()
	case SchemeECPT:
		used = p.EcptT.TableBytes()
	case SchemeLVM:
		used = p.LvmIx.TableFootprintBytes() + uint64(p.LvmIx.SizeBytes())
	case SchemeVictima:
		used = p.VictimaT.TableBytes()
	case SchemeRevelator:
		used = p.RevT.TableBytes()
	default:
		return 0
	}
	if used < minimum {
		return 0
	}
	return used - minimum
}
