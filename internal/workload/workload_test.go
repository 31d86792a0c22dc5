package workload

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/vas"
)

func TestKroneckerShape(t *testing.T) {
	g := Kronecker(10, 8, 1)
	if g.V != 1024 {
		t.Errorf("V = %d", g.V)
	}
	if g.E() != 1024*8 {
		t.Errorf("E = %d", g.E())
	}
	// CSR invariants.
	if g.Offsets[0] != 0 || g.Offsets[g.V] != uint64(g.E()) {
		t.Error("offsets endpoints wrong")
	}
	for i := 1; i <= g.V; i++ {
		if g.Offsets[i] < g.Offsets[i-1] {
			t.Fatal("offsets not monotone")
		}
	}
	for _, v := range g.Targets {
		if int(v) >= g.V {
			t.Fatal("target out of range")
		}
	}
}

func TestKroneckerSkewed(t *testing.T) {
	// RMAT graphs are power-law-ish: the max degree should far exceed the
	// average.
	g := Kronecker(12, 8, 2)
	maxDeg := 0
	for u := 0; u < g.V; u++ {
		if d := g.Degree(u); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 8*8 {
		t.Errorf("max degree %d too small for an RMAT graph", maxDeg)
	}
}

func TestKroneckerDeterministic(t *testing.T) {
	a := Kronecker(8, 4, 3)
	b := Kronecker(8, 4, 3)
	if a.E() != b.E() {
		t.Fatal("same seed, different graphs")
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatal("same seed, different targets")
		}
	}
}

// kroneckerReference is the original sort-based generator: it draws every
// edge into a slice and sorts the slice by (src, dst). Kronecker must build
// the same CSR, byte for byte.
func kroneckerReference(scale int, avgDegree int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	v := 1 << uint(scale)
	e := v * avgDegree

	type edge struct{ src, dst uint32 }
	edges := make([]edge, 0, e)
	const a, b, c = 0.57, 0.19, 0.19
	for i := 0; i < e; i++ {
		var src, dst uint32
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: neither bit set
			case r < a+b:
				dst |= 1 << uint(bit)
			case r < a+b+c:
				src |= 1 << uint(bit)
			default:
				src |= 1 << uint(bit)
				dst |= 1 << uint(bit)
			}
		}
		edges = append(edges, edge{src, dst})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].src != edges[j].src {
			return edges[i].src < edges[j].src
		}
		return edges[i].dst < edges[j].dst
	})

	g := &Graph{
		V:       v,
		Offsets: make([]uint64, v+1),
		Targets: make([]uint32, 0, len(edges)),
	}
	cur := uint32(0)
	for _, ed := range edges {
		for cur < ed.src {
			cur++
			g.Offsets[cur] = uint64(len(g.Targets))
		}
		g.Targets = append(g.Targets, ed.dst)
	}
	for cur < uint32(v) {
		cur++
		g.Offsets[cur] = uint64(len(g.Targets))
	}
	return g
}

func sameGraph(t *testing.T, scale, degree int, seed int64) {
	t.Helper()
	got, want := Kronecker(scale, degree, seed), kroneckerReference(scale, degree, seed)
	if got.V != want.V || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.Targets, want.Targets) {
		t.Fatalf("Kronecker(%d, %d, %d) differs from the reference (V %d vs %d, E %d vs %d)",
			scale, degree, seed, got.V, want.V, got.E(), want.E())
	}
}

func TestKroneckerMatchesReference(t *testing.T) {
	for scale := 0; scale <= 12; scale++ {
		for _, degree := range []int{1, 4, 8, 16} {
			for _, seed := range []int64{0, 1, 42, -7} {
				sameGraph(t, scale, degree, seed)
			}
		}
	}
	// Scale 0 is one vertex whose every edge is a self-loop.
	g := Kronecker(0, 5, 1)
	if g.V != 1 || !slices.Equal(g.Offsets, []uint64{0, 5}) || !slices.Equal(g.Targets, make([]uint32, 5)) {
		t.Errorf("scale 0: V=%d Offsets=%v Targets=%v", g.V, g.Offsets, g.Targets)
	}
}

func FuzzKronecker(f *testing.F) {
	f.Add(uint8(0), uint8(1), int64(0))
	f.Add(uint8(8), uint8(4), int64(3))
	f.Add(uint8(12), uint8(16), int64(42))
	f.Fuzz(func(t *testing.T, scale, degree uint8, seed int64) {
		sameGraph(t, int(scale%13), int(degree%17), seed)
	})
}

// TestKroneckerGolden pins the graphs the benchmarks and the quick sweep
// build: each digest is FNV-64a over Offsets (little-endian uint64s), then
// over Targets (little-endian uint32s). The digests were computed with the
// sort-based generator, so Kronecker and kroneckerReference cannot drift
// together.
func TestKroneckerGolden(t *testing.T) {
	cases := []struct {
		scale, degree int
		seed          int64
		want          [2]uint64 // Offsets, Targets
	}{
		{18, 8, 42, [2]uint64{0x9fd43d9c711c7677, 0xc626ca4fc94537cf}},
		{18, 8, 43, [2]uint64{0x43d73320661ec249, 0x4fb856fc02d31cf6}},
		{14, 8, 1, [2]uint64{0xa56673d03bf36b5f, 0xa9f874e5ce8da7d2}},
	}
	for _, c := range cases {
		g := Kronecker(c.scale, c.degree, c.seed)
		var b [8]byte
		ho := fnv.New64a()
		for _, o := range g.Offsets {
			binary.LittleEndian.PutUint64(b[:], o)
			ho.Write(b[:])
		}
		ht := fnv.New64a()
		for _, d := range g.Targets {
			binary.LittleEndian.PutUint32(b[:4], d)
			ht.Write(b[:4])
		}
		if got := [2]uint64{ho.Sum64(), ht.Sum64()}; got != c.want {
			t.Errorf("Kronecker(%d, %d, %d) digests %#x, want %#x", c.scale, c.degree, c.seed, got, c.want)
		}
	}
}

// BenchmarkKronecker builds the graph the benchmarks' graph workloads use.
func BenchmarkKronecker(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Kronecker(18, 8, 42)
	}
}

// TestGraphCacheBuildsOnce asks a fresh cache for one key from many
// goroutines at once: the build must run exactly once, it holds every caller
// until all have started, and every caller must get the same *Graph. A
// second key gets its own build.
func TestGraphCacheBuildsOnce(t *testing.T) {
	const callers = 8
	var c graphCache
	var builds atomic.Int32
	var ready sync.WaitGroup
	ready.Add(callers)
	build := func(scale, degree int, seed int64) *Graph {
		builds.Add(1)
		ready.Wait()
		return &Graph{V: 1 << scale}
	}
	p := Params{GraphScale: 3, GraphDegree: 2, Seed: 7}
	got := make([]*Graph, callers)
	var done sync.WaitGroup
	done.Add(callers)
	for i := range got {
		go func() {
			defer done.Done()
			ready.Done()
			got[i] = c.get(p, build)
		}()
	}
	done.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent callers ran %d builds, want 1", callers, n)
	}
	for i, g := range got {
		if g == nil || g != got[0] {
			t.Fatalf("caller %d got graph %p, caller 0 got %p", i, g, got[0])
		}
	}
	p.Seed++
	if g := c.get(p, build); g == got[0] || builds.Load() != 2 {
		t.Errorf("a second key shared the first key's graph or skipped its build (%d builds)", builds.Load())
	}
}

// TestCacheBuildsOnce asks one Cache for a few names from many goroutines
// at once: every caller of a name must get the same *Workload, and a name
// that fails to build fails the same way for every caller.
func TestCacheBuildsOnce(t *testing.T) {
	c := NewCache(QuickParams())
	names := []string{"bfs", "gups", "bfs", "mem$", "nope", "gups", "bfs", "mem$", "nope", "gups"}
	got := make([]*Workload, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = c.Get(name)
		}()
	}
	wg.Wait()
	first := map[string]int{}
	for i, name := range names {
		if name == "nope" {
			if !errors.Is(errs[i], ErrUnknown) {
				t.Errorf("caller %d of an unknown name got %v", i, errs[i])
			}
			continue
		}
		if errs[i] != nil || got[i] == nil {
			t.Fatalf("caller %d of %s: %v", i, name, errs[i])
		}
		if j, ok := first[name]; ok && got[j] != got[i] {
			t.Errorf("%s built twice", name)
		}
		first[name] = i
	}
}

func TestAllWorkloadsBuild(t *testing.T) {
	p := QuickParams()
	for _, name := range SpeedupNames() {
		w, err := Build(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(w.Accesses) != p.TraceLen {
			t.Errorf("%s: trace length %d want %d", name, len(w.Accesses), p.TraceLen)
		}
		if w.InstrsPerAccess < 1 {
			t.Errorf("%s: instrs per access %d", name, w.InstrsPerAccess)
		}
		if w.FootprintBytes() == 0 {
			t.Errorf("%s: empty footprint", name)
		}
	}
}

// The estimate must be exact, not approximate: lvmbench -list prints
// estimated costs as the costs the scheduler will charge, and the
// scheduler charges the built workload's footprint.
func TestEstimateFootprintExact(t *testing.T) {
	p := QuickParams()
	for _, name := range SpeedupNames() {
		est, err := EstimateFootprintBytes(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w, err := Build(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if est != w.FootprintBytes() {
			t.Errorf("%s: estimated %d bytes, built %d", name, est, w.FootprintBytes())
		}
	}
	if _, err := EstimateFootprintBytes("nope", p); !errors.Is(err, ErrUnknown) {
		t.Errorf("unknown workload: got %v, want ErrUnknown", err)
	}
}

func TestTracesTouchMappedPages(t *testing.T) {
	p := QuickParams()
	for _, name := range SpeedupNames() {
		w, err := Build(name, p)
		if err != nil {
			t.Fatal(err)
		}
		mapped := make(map[addr.VPN]bool)
		for _, r := range w.Space.Regions {
			for _, v := range r.Mapped {
				mapped[v] = true
			}
		}
		for i, a := range w.Accesses {
			if !mapped[addr.VPNOf(a.VA)] {
				t.Fatalf("%s: access %d to unmapped VPN %#x", name, i, uint64(addr.VPNOf(a.VA)))
			}
		}
	}
}

func TestTraceDeterminism(t *testing.T) {
	p := QuickParams()
	a, _ := Build("bfs", p)
	b, _ := Build("bfs", p)
	for i := range a.Accesses {
		if a.Accesses[i] != b.Accesses[i] {
			t.Fatal("same params, different traces")
		}
	}
}

func TestGUPSIsRandom(t *testing.T) {
	p := QuickParams()
	w, _ := Build("gups", p)
	// Most consecutive accesses must land on different pages (the
	// TLB-hostile property).
	samePage := 0
	for i := 1; i < len(w.Accesses); i++ {
		if addr.VPNOf(w.Accesses[i].VA) == addr.VPNOf(w.Accesses[i-1].VA) {
			samePage++
		}
	}
	if frac := float64(samePage) / float64(len(w.Accesses)); frac > 0.05 {
		t.Errorf("GUPS same-page fraction = %.3f, want ≈0", frac)
	}
}

func TestGraphTraceHasLocalityMix(t *testing.T) {
	p := QuickParams()
	w, _ := Build("bfs", p)
	sameLine := 0
	for i := 1; i < len(w.Accesses); i++ {
		if w.Accesses[i].VA/64 == w.Accesses[i-1].VA/64 {
			sameLine++
		}
	}
	frac := float64(sameLine) / float64(len(w.Accesses))
	// Graph traversal mixes sequential (offsets/targets) and random
	// (visited) accesses: some line locality, far from all.
	if frac < 0.005 || frac > 0.9 {
		t.Errorf("bfs same-line fraction = %.3f, expected a mix", frac)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Build("nope", QuickParams()); err == nil {
		t.Error("expected error")
	}
}

func TestFig2ProfilesCoverage(t *testing.T) {
	// §3.1: every profile must exhibit ≥78% gap-1 coverage.
	for name, cfg := range Fig2Profiles() {
		// Shrink for test speed while keeping the hole statistics.
		cfg.HeapPages = min(cfg.HeapPages, 1<<15)
		cfg.MmapPages = min(cfg.MmapPages, 1<<13)
		space := vas.Generate(cfg, 9)
		got := vas.GapCoverage(space.MappedVPNs())
		if got < 0.78 {
			t.Errorf("%s: gap coverage %.3f < 0.78", name, got)
		}
	}
}

func TestMemcachedSkewed(t *testing.T) {
	p := QuickParams()
	w, _ := Build("mem$", p)
	// Zipf popularity: the most frequent line should appear much more
	// often than the mean.
	counts := map[addr.VA]int{}
	for _, a := range w.Accesses {
		counts[a.VA/64]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	mean := float64(len(w.Accesses)) / float64(len(counts))
	if float64(maxCount) < mean*4 {
		t.Errorf("memcached popularity not skewed: max %d vs mean %.1f", maxCount, mean)
	}
}

func TestWritesPresent(t *testing.T) {
	p := QuickParams()
	for _, name := range []string{"gups", "mem$", "pr", "dc"} {
		w, _ := Build(name, p)
		writes := 0
		for _, a := range w.Accesses {
			if a.Write {
				writes++
			}
		}
		if writes == 0 {
			t.Errorf("%s: no writes in trace", name)
		}
	}
}
