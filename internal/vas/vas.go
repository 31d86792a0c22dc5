// Package vas models process virtual address spaces: regions (text, data,
// heap, mmap arenas, stack) placed at ASLR-randomized bases, userspace
// allocator behaviour (jemalloc / tcmalloc hole patterns), transparent huge
// page policy, the Figure-2 gap-coverage metric, and the ASLR normalization
// the OS exposes to LVM through base registers (paper §5.2).
package vas

import (
	"fmt"
	"math/rand"
	"sort"

	"lvm/internal/addr"
)

// RegionKind labels a VMA's role.
type RegionKind string

// Region kinds.
const (
	Text  RegionKind = "text"
	Data  RegionKind = "data"
	Heap  RegionKind = "heap"
	Mmap  RegionKind = "mmap"
	Stack RegionKind = "stack"
	Lib   RegionKind = "lib"
)

// Region is one virtual memory area with its mapped pages.
type Region struct {
	Kind RegionKind
	// Base is the first VPN of the region after ASLR placement.
	Base addr.VPN
	// Span is the region's reserved extent in pages.
	Span int
	// Mapped lists the mapped VPNs (sorted, within [Base, Base+Span)).
	Mapped []addr.VPN
	// THPEligible marks regions the OS may back with 2 MB pages.
	THPEligible bool
}

// AddressSpace is a process layout.
type AddressSpace struct {
	Regions []Region
}

// Allocator identifies the userspace allocator hole model.
type Allocator string

// Allocator models (§3.1 evaluates jemalloc and tcmalloc; both keep the
// space highly regular).
const (
	Jemalloc Allocator = "jemalloc"
	Tcmalloc Allocator = "tcmalloc"
)

// LayoutConfig drives synthetic layout generation.
type LayoutConfig struct {
	// HeapPages is the heap size in 4 KB pages.
	HeapPages int
	// MmapRegions and MmapPages size the anonymous mmap arenas.
	MmapRegions int
	MmapPages   int
	// StackPages sizes the stack.
	StackPages int
	// LibCount adds shared-library file mappings.
	LibCount int
	// HoleFraction is the fraction of pages inside heap/mmap regions left
	// unmapped (allocator-dependent fragmentation of the VA space).
	HoleFraction float64
	// MeanHoleRun is the mean length of each unmapped hole in pages.
	MeanHoleRun int
	// Allocator selects the hole pattern model.
	Allocator Allocator
	// ASLR spreads region bases across the canonical 48-bit layout.
	ASLR bool
}

// DefaultConfig is a memory-intensive C/C++ server profile.
func DefaultConfig() LayoutConfig {
	return LayoutConfig{
		HeapPages:    1 << 18, // 1 GB heap
		MmapRegions:  4,
		MmapPages:    1 << 15, // 128 MB per arena
		StackPages:   512,
		LibCount:     6,
		HoleFraction: 0.05,
		MeanHoleRun:  4,
		Allocator:    Jemalloc,
		ASLR:         true,
	}
}

// Generate builds a deterministic layout from the config and seed.
func Generate(cfg LayoutConfig, seed int64) *AddressSpace {
	rng := rand.New(rand.NewSource(seed))
	var space AddressSpace

	// Linux-style ASLR: one random slide per area (executable, heap, mmap
	// area, stack), 2 MB aligned; regions within an area share the slide,
	// so they never collide.
	slides := map[RegionKind]addr.VPN{}
	if cfg.ASLR {
		exe := addr.VPN(rng.Intn(1<<12)) * 512
		mm := addr.VPN(rng.Intn(1<<14)) * 512
		slides[Text] = exe
		slides[Data] = exe
		slides[Heap] = exe + addr.VPN(rng.Intn(1<<10))*512
		slides[Mmap] = mm
		slides[Lib] = mm
		slides[Stack] = addr.VPN(rng.Intn(1<<12)) * 512
	}

	place := func(kind RegionKind, canonical addr.VPN, span int, thp bool) *Region {
		base := canonical + slides[kind]
		space.Regions = append(space.Regions, Region{
			Kind: kind, Base: base, Span: span, THPEligible: thp,
		})
		return &space.Regions[len(space.Regions)-1]
	}

	fill := func(r *Region, holeFrac float64, meanRun int) {
		r.Mapped = r.Mapped[:0]
		if holeFrac <= 0 {
			for i := 0; i < r.Span; i++ {
				r.Mapped = append(r.Mapped, r.Base+addr.VPN(i))
			}
			return
		}
		// Alternate mapped runs and holes with geometric lengths; the
		// allocator buffers application churn, so holes are short and
		// rare (§3.1).
		meanMapped := int(float64(meanRun)*(1-holeFrac)/holeFrac) + 1
		i := 0
		for i < r.Span {
			run := 1 + int(rng.ExpFloat64()*float64(meanMapped))
			for j := 0; j < run && i < r.Span; j++ {
				r.Mapped = append(r.Mapped, r.Base+addr.VPN(i))
				i++
			}
			hole := 1 + int(rng.ExpFloat64()*float64(meanRun-1))
			i += hole
		}
	}

	// Canonical bases mirror a Linux x86-64 layout (units: 4 KB VPNs).
	text := place(Text, 0x00400000>>addr.PageShift<<0, 512, false)
	fill(text, 0, 0)
	data := place(Data, addr.VPN(0x00600000>>addr.PageShift), 256, false)
	fill(data, 0, 0)
	heap := place(Heap, addr.VPN(0x02000000>>addr.PageShift), cfg.HeapPages, true)
	holeFrac := cfg.HoleFraction
	meanRun := cfg.MeanHoleRun
	if cfg.Allocator == Tcmalloc {
		// tcmalloc reserves larger spans and returns memory in bigger
		// chunks: slightly fewer, longer holes. Regularity is practically
		// the same (§3.1).
		meanRun = cfg.MeanHoleRun * 2
		holeFrac = cfg.HoleFraction * 0.9
	}
	fill(heap, holeFrac, meanRun)

	// Region bases stay 2 MB aligned so ASLR normalization preserves
	// huge-page alignment (mmap is 2 MB aligned under THP in Linux too).
	mmapBase := addr.VPN(0x7f00_0000_0000 >> addr.PageShift)
	spacing := (cfg.MmapPages + cfg.MmapPages/8 + 511) &^ 511
	for i := 0; i < cfg.MmapRegions; i++ {
		r := place(Mmap, mmapBase+addr.VPN(i*spacing), cfg.MmapPages, true)
		fill(r, holeFrac, meanRun)
	}
	for i := 0; i < cfg.LibCount; i++ {
		r := place(Lib, mmapBase+addr.VPN((cfg.MmapRegions+1)*spacing+i*1024), 512+rng.Intn(512), false)
		fill(r, 0, 0)
	}
	stack := place(Stack, addr.VPN(0x7fff_f000_0000>>addr.PageShift), cfg.StackPages, false)
	fill(stack, 0, 0)

	sort.Slice(space.Regions, func(i, j int) bool { return space.Regions[i].Base < space.Regions[j].Base })
	return &space
}

// MappedVPNs returns all mapped VPNs in ascending order.
func (s *AddressSpace) MappedVPNs() []addr.VPN {
	var out []addr.VPN
	for _, r := range s.Regions {
		out = append(out, r.Mapped...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalMapped returns the number of mapped base pages.
func (s *AddressSpace) TotalMapped() int {
	n := 0
	for _, r := range s.Regions {
		n += len(r.Mapped)
	}
	return n
}

// FootprintBytes returns the mapped memory size.
func (s *AddressSpace) FootprintBytes() uint64 {
	return uint64(s.TotalMapped()) << addr.PageShift
}

// Translation is a page-size-aware mapping unit produced by THP policy.
type Translation struct {
	VPN  addr.VPN
	Size addr.PageSize
}

// Translations applies the THP policy: in THP-eligible regions, aligned
// fully-mapped 512-page runs become one 2 MB translation; everything else
// stays 4 KB (Linux's khugepaged behaviour).
func (s *AddressSpace) Translations(thp bool) []Translation {
	out := make([]Translation, 0, s.TotalMapped())
	for _, r := range s.Regions {
		ms := r.Mapped
		for i := 0; i < len(ms); {
			// Mapped is sorted and unique, so the chunk at v is full exactly
			// when v is its base and the 512th entry from here is its last
			// page.
			v := ms[i]
			if thp && r.THPEligible && addr.Aligned(v, addr.Page2M) && i+511 < len(ms) && ms[i+511] == v+511 {
				out = append(out, Translation{VPN: v, Size: addr.Page2M})
				i += 512
				continue
			}
			out = append(out, Translation{VPN: v, Size: addr.Page4K})
			i++
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VPN < out[j].VPN })
	return out
}

// GapCoverage computes the Figure-2 metric over sorted VPNs: the fraction
// of adjacent mapped pairs whose gap equals 1 (perfect sequentiality).
func GapCoverage(vpns []addr.VPN) float64 {
	if len(vpns) < 2 {
		return 1
	}
	seq := 0
	for i := 1; i < len(vpns); i++ {
		if vpns[i]-vpns[i-1] == 1 {
			seq++
		}
	}
	return float64(seq) / float64(len(vpns)-1)
}

// Normalizer implements the ASLR-base-register mechanism of §5.2: the OS
// exposes each region's slide to hardware, which subtracts it before the
// learned-index walk. Normalization packs regions into a compact canonical
// layout, so the index trains on a regular key space while applications
// keep full ASLR entropy.
type Normalizer struct {
	// bounds[i] covers raw VPNs [rawLo, rawHi]; normalized base normBase.
	regions []normRegion
}

type normRegion struct {
	rawLo, rawHi addr.VPN
	normBase     addr.VPN
}

// NewNormalizer builds the register set for a layout: regions are packed in
// base order with one-page guard gaps.
func NewNormalizer(s *AddressSpace) *Normalizer {
	n := &Normalizer{}
	cursor := addr.VPN(0x400) // small canonical offset
	for _, r := range s.Regions {
		n.regions = append(n.regions, normRegion{
			rawLo:    r.Base,
			rawHi:    r.Base + addr.VPN(r.Span) - 1,
			normBase: cursor,
		})
		// Keep 2MB alignment so huge pages stay aligned after
		// normalization; adjacent raw regions stay adjacent.
		cursor += addr.VPN((r.Span + 511) &^ 511)
	}
	return n
}

// Normalize maps a raw VPN to its canonical VPN. VPNs outside every region
// are returned unchanged (they can only miss).
func (n *Normalizer) Normalize(v addr.VPN) addr.VPN {
	i := sort.Search(len(n.regions), func(i int) bool { return n.regions[i].rawHi >= v })
	if i < len(n.regions) && v >= n.regions[i].rawLo {
		return n.regions[i].normBase + (v - n.regions[i].rawLo)
	}
	return v
}

// String summarizes the register set.
func (n *Normalizer) String() string {
	return fmt.Sprintf("Normalizer{%d regions}", len(n.regions))
}
