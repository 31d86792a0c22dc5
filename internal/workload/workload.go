// Package workload synthesizes the paper's evaluation workloads (§6.2):
// the six graphBIG kernels on a Kronecker graph, GUPS, a MUMmer-like
// sequence aligner, and a memcached-like key-value store. Each workload
// owns a virtual address space (built with internal/vas) and produces a
// deterministic memory-access trace whose addresses are the actual data
// structure elements the algorithm touches.
//
// Footprints are scaled down from the paper's testbed (75–124 GB) to fit a
// laptop-scale simulation while preserving the regime that drives the
// results: working sets far exceed the 8 MB L2-TLB reach and the L2/L3
// caches, so TLB and PWC miss rates land in the paper's reported ranges.
package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"lvm/internal/addr"
	"lvm/internal/vas"
)

// Access is one memory reference of the trace.
type Access struct {
	VA addr.VA
	// Write marks stores (informational; the timing model treats loads
	// and stores alike).
	Write bool
}

// Workload bundles a layout and its access trace.
type Workload struct {
	Name string
	// Space is the process's virtual address space.
	Space *vas.AddressSpace
	// Accesses is the memory reference trace.
	Accesses []Access
	// InstrsPerAccess is the mean number of instructions per memory
	// reference (sets the compute/memory ratio of the core model).
	InstrsPerAccess int
}

// FootprintBytes returns the mapped memory size.
func (w *Workload) FootprintBytes() uint64 { return w.Space.FootprintBytes() }

// arena bump-allocates data structures inside a fully mapped region.
type arena struct {
	base addr.VA
	size uint64
	used uint64
}

func newArena(r *vas.Region) *arena {
	return &arena{base: addr.VAOf(r.Base), size: uint64(r.Span) << addr.PageShift}
}

// alloc reserves n bytes, 64-byte aligned, and returns the base VA.
func (a *arena) alloc(n uint64) addr.VA {
	a.used = (a.used + 63) &^ 63
	if a.used+n > a.size {
		panic(fmt.Sprintf("workload: arena overflow: %d + %d > %d", a.used, n, a.size))
	}
	va := a.base + addr.VA(a.used)
	a.used += n
	return va
}

// heapLayout builds a process layout with a fully mapped heap of the given
// size (the arrays live there) plus the usual small regions.
func heapLayout(heapPages int, seed int64) *vas.AddressSpace {
	cfg := vas.DefaultConfig()
	cfg.HeapPages = heapPages
	cfg.MmapRegions = 2
	cfg.MmapPages = 4096
	cfg.HoleFraction = 0.03
	cfg.MeanHoleRun = 3
	space := vas.Generate(cfg, seed)
	// The heap hosts the arrays: map it fully.
	for i := range space.Regions {
		if space.Regions[i].Kind == vas.Heap {
			r := &space.Regions[i]
			r.Mapped = r.Mapped[:0]
			for p := 0; p < r.Span; p++ {
				r.Mapped = append(r.Mapped, r.Base+addr.VPN(p))
			}
		}
	}
	return space
}

func heapRegion(s *vas.AddressSpace) *vas.Region {
	for i := range s.Regions {
		if s.Regions[i].Kind == vas.Heap {
			return &s.Regions[i]
		}
	}
	panic("workload: no heap region")
}

// Params scales workload construction.
type Params struct {
	// GraphScale is log2 of the Kronecker vertex count.
	GraphScale int
	// GraphDegree is the average out-degree.
	GraphDegree int
	// TraceLen caps the access trace length.
	TraceLen int
	// GUPSTableBytes sizes the GUPS update table.
	GUPSTableBytes uint64
	// MemcachedBytes sizes the key-value store (buckets + slabs).
	MemcachedBytes uint64
	// MumerBytes sizes the reference + suffix array.
	MumerBytes uint64
	Seed       int64
}

// DefaultParams is the laptop-scale configuration used by the benchmarks.
func DefaultParams() Params {
	return Params{
		GraphScale:     22, // 4M vertices, ~33M edges → ~1.1 GB footprint
		GraphDegree:    8,
		TraceLen:       1_000_000,
		GUPSTableBytes: 4 << 30,
		MemcachedBytes: 5 << 29, // 2.5 GB
		MumerBytes:     2 << 30,
		Seed:           42,
	}
}

// QuickParams is a smaller configuration for unit tests.
func QuickParams() Params {
	return Params{
		GraphScale:     14,
		GraphDegree:    8,
		TraceLen:       50_000,
		GUPSTableBytes: 16 << 20,
		MemcachedBytes: 24 << 20,
		MumerBytes:     16 << 20,
		Seed:           42,
	}
}

// SpeedupNames lists the nine Figure-9 workloads in paper order.
func SpeedupNames() []string {
	return []string{"bfs", "pr", "cc", "dc", "dfs", "sssp", "gups", "mem$", "MUMr"}
}

// graphCache builds each Kronecker graph once and shares it: callers that
// ask for the same (scale, degree, seed) at the same time wait for the one
// build instead of each running their own.
type graphCache struct {
	m sync.Map // key: [3]int64{scale, degree, seed} -> *graphEntry
}

type graphEntry struct {
	once sync.Once
	g    *Graph
}

// get returns the graph for p's key, calling build for it only the first
// time that key is asked for.
func (c *graphCache) get(p Params, build func(scale, degree int, seed int64) *Graph) *Graph {
	key := [3]int64{int64(p.GraphScale), int64(p.GraphDegree), p.Seed}
	v, _ := c.m.LoadOrStore(key, new(graphEntry))
	e := v.(*graphEntry)
	e.once.Do(func() { e.g = build(p.GraphScale, p.GraphDegree, p.Seed) })
	return e.g
}

// graphs shares one Kronecker graph across the six graph kernels.
var graphs graphCache

func sharedGraph(p Params) *Graph { return graphs.get(p, Kronecker) }

// ErrUnknown reports a workload name Build does not recognize; callers can
// test for it with errors.Is through any number of wrapping layers.
var ErrUnknown = errors.New("unknown workload")

// A Cache builds each named workload at most once for one Params: the
// first caller of a name builds it, concurrent callers of that name wait
// for that one build, and builds of different names do not wait on each
// other. The sweep runner and the lvmd daemon share workloads through it.
type Cache struct {
	p Params
	m sync.Map // name -> *cacheEntry
}

type cacheEntry struct {
	once sync.Once
	w    *Workload
	err  error
}

// NewCache returns an empty cache building with p.
func NewCache(p Params) *Cache { return &Cache{p: p} }

// Get returns the named workload, building it on first use. A failed
// build is remembered: later callers get the same error.
func (c *Cache) Get(name string) (*Workload, error) {
	v, _ := c.m.LoadOrStore(name, new(cacheEntry))
	e := v.(*cacheEntry)
	e.once.Do(func() { e.w, e.err = Build(name, c.p) })
	return e.w, e.err
}

// Build constructs a workload by name.
func Build(name string, p Params) (*Workload, error) {
	switch name {
	case "bfs", "dfs", "cc", "dc", "pr", "sssp":
		return buildGraph(name, p), nil
	case "gups":
		return buildGUPS(p), nil
	case "mem$", "memcached":
		return buildMemcached(p), nil
	case "MUMr", "mummer":
		return buildMUMmer(p), nil
	}
	return nil, fmt.Errorf("workload: %w %q", ErrUnknown, name)
}

// EstimateFootprintBytes predicts Build(name, p).FootprintBytes() without
// constructing the workload's data structures or access trace: it derives
// the heap size from the same formulas the builders use and generates only
// the (cheap) address-space layout. The estimate is exact for every known
// workload — the Kronecker generator emits exactly V·degree edges and the
// layout is a pure function of (pages, seed) — which is what lets
// `lvmbench -list` cost columns, computed without any build, agree with
// the real footprints.
func EstimateFootprintBytes(name string, p Params) (uint64, error) {
	var heapPages int
	var seedOff int64
	switch name {
	case "bfs", "dfs", "cc", "dc", "pr", "sssp":
		v := uint64(1) << uint(p.GraphScale)
		e := v * uint64(p.GraphDegree)
		bytes := (v+1)*offStride + e*tgtStride + 2*v*propStride
		heapPages = int(bytes>>addr.PageShift) + 2048
		seedOff = 0
	case "gups":
		heapPages = int(p.GUPSTableBytes>>addr.PageShift) + 1024
		seedOff = 1
	case "mem$", "memcached":
		heapPages = int(p.MemcachedBytes>>addr.PageShift) + 1024
		seedOff = 2
	case "MUMr", "mummer":
		heapPages = int(p.MumerBytes>>addr.PageShift) + 1024
		seedOff = 3
	default:
		return 0, fmt.Errorf("workload: %w %q", ErrUnknown, name)
	}
	return heapLayout(heapPages, p.Seed+seedOff).FootprintBytes(), nil
}

// Fig2Profiles returns the Figure-2 study set: a layout configuration per
// application family, including the allocator variants. Every profile must
// exhibit gap-1 coverage ≥ 0.78 (§3.1).
func Fig2Profiles() map[string]vas.LayoutConfig {
	base := vas.DefaultConfig()
	mk := func(mod func(*vas.LayoutConfig)) vas.LayoutConfig {
		c := base
		mod(&c)
		return c
	}
	return map[string]vas.LayoutConfig{
		// Graph analytics: one giant heap, few holes.
		"graph": mk(func(c *vas.LayoutConfig) { c.HeapPages = 1 << 17; c.HoleFraction = 0.02 }),
		// Bioinformatics (MUMmer): large file-backed + heap.
		"bio": mk(func(c *vas.LayoutConfig) { c.MmapRegions = 2; c.MmapPages = 1 << 15; c.HoleFraction = 0.04 }),
		// Caching (memcached): slab allocator, very regular.
		"caching": mk(func(c *vas.LayoutConfig) { c.HeapPages = 1 << 17; c.HoleFraction = 0.01 }),
		// HPC (GUPS): one huge table.
		"hpc": mk(func(c *vas.LayoutConfig) { c.HeapPages = 1 << 17; c.HoleFraction = 0.005 }),
		// MongoDB: file-backed mappings dominate.
		"mongodb": mk(func(c *vas.LayoutConfig) { c.MmapRegions = 8; c.MmapPages = 1 << 14; c.HoleFraction = 0.08 }),
		// Finagle RPC (JVM): preallocated GC heap, almost no holes.
		"finagle": mk(func(c *vas.LayoutConfig) { c.HeapPages = 1 << 17; c.HoleFraction = 0.002 }),
		// hhvm (PHP): many arenas, more churn.
		"hhvm": mk(func(c *vas.LayoutConfig) {
			c.MmapRegions = 12
			c.MmapPages = 1 << 13
			c.HoleFraction = 0.15
			c.MeanHoleRun = 2
		}),
		// Kafka (JVM + mmapped logs).
		"kafka": mk(func(c *vas.LayoutConfig) { c.MmapRegions = 6; c.MmapPages = 1 << 14; c.HoleFraction = 0.03 }),
		// Meta production workloads 1-4: mixed profiles with the heaviest
		// fragmentation still ≥ the 78% floor.
		"workload1": mk(func(c *vas.LayoutConfig) { c.HoleFraction = 0.10; c.MeanHoleRun = 2 }),
		"workload2": mk(func(c *vas.LayoutConfig) { c.HoleFraction = 0.18; c.MeanHoleRun = 1 }),
		"workload3": mk(func(c *vas.LayoutConfig) { c.MmapRegions = 10; c.HoleFraction = 0.07 }),
		"workload4": mk(func(c *vas.LayoutConfig) { c.HeapPages = 1 << 16; c.HoleFraction = 0.12; c.MeanHoleRun = 3 }),
		// Allocator variants (§3.1: regularity practically the same).
		"graph-jemalloc": mk(func(c *vas.LayoutConfig) { c.Allocator = vas.Jemalloc; c.HoleFraction = 0.05 }),
		"graph-tcmalloc": mk(func(c *vas.LayoutConfig) { c.Allocator = vas.Tcmalloc; c.HoleFraction = 0.05 }),
	}
}

// rngFor derives a per-purpose RNG.
func rngFor(p Params, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(p.Seed*1_000_003 + salt))
}
