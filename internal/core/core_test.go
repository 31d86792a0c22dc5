package core

import (
	"math/rand"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

func newMem() *phys.Memory { return phys.New(256 << 20) }

// seqMappings builds n sequential 4K mappings starting at VPN base.
func seqMappings(base addr.VPN, n int) []Mapping {
	ms := make([]Mapping, n)
	for i := range ms {
		ms[i] = Mapping{
			VPN:   base + addr.VPN(i),
			Entry: pte.New(addr.PPN(0x1000+i), addr.Page4K),
		}
	}
	return ms
}

// segmented builds a multi-segment address space resembling a process
// layout after ASLR normalization (paper §5.2): the OS exposes region
// bases to hardware, so the index sees segments packed with modest gaps.
func segmented() []Mapping {
	return layout([]seg{
		{0x400, 512},   // text
		{0x800, 256},   // data
		{0xa00, 8192},  // heap
		{0x2c00, 2048}, // mmap 1
		{0x3800, 4096}, // mmap 2
		{0x4c00, 1024}, // stack
	})
}

// scattered builds the same segments at pre-normalization ASLR-style bases
// spread across the full address space — the pathological case the cost
// model must bound (§4.2.3) but is not expected to make collision-free.
func scattered() []Mapping {
	return layout([]seg{
		{0x400, 512},     // text
		{0x800, 256},     // data
		{0x10000, 8192},  // heap
		{0x80000, 2048},  // mmap 1
		{0x90000, 4096},  // mmap 2
		{0x7f0000, 1024}, // stack
	})
}

type seg struct {
	base addr.VPN
	n    int
}

func layout(segs []seg) []Mapping {
	var ms []Mapping
	ppn := addr.PPN(1)
	for _, s := range segs {
		for i := 0; i < s.n; i++ {
			ms = append(ms, Mapping{VPN: s.base + addr.VPN(i), Entry: pte.New(ppn, addr.Page4K)})
			ppn++
		}
	}
	return ms
}

func build(t *testing.T, ms []Mapping) *Index {
	t.Helper()
	ix, err := Build(newMem(), ms, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestBuildEmptyFails(t *testing.T) {
	if _, err := Build(newMem(), nil, DefaultParams()); err != ErrEmpty {
		t.Errorf("err = %v", err)
	}
}

func TestBuildBadParams(t *testing.T) {
	p := DefaultParams()
	p.DLimit = 0
	if _, err := Build(newMem(), seqMappings(1, 10), p); err == nil {
		t.Error("expected param validation error")
	}
}

func TestSequentialSpaceSingleAccess(t *testing.T) {
	// A perfectly regular space: every walk must be single-access and the
	// index must be tiny.
	ix := build(t, seqMappings(0x1000, 10000))
	for i := 0; i < 10000; i++ {
		r := ix.Walk(0x1000 + addr.VPN(i))
		if !r.Found {
			t.Fatalf("VPN %d not found", 0x1000+i)
		}
		if r.PTEAccesses != 1 {
			t.Fatalf("VPN %d took %d PTE accesses", 0x1000+i, r.PTEAccesses)
		}
		if r.Entry.PPN() != addr.PPN(0x1000+i) {
			t.Fatalf("VPN %d wrong PPN %#x", 0x1000+i, uint64(r.Entry.PPN()))
		}
	}
	if ix.SizeBytes() > 64 {
		t.Errorf("sequential index size = %d bytes", ix.SizeBytes())
	}
	if ix.Depth() != 1 {
		t.Errorf("sequential index depth = %d", ix.Depth())
	}
}

func TestSegmentedSpaceCorrect(t *testing.T) {
	ms := segmented()
	ix := build(t, ms)
	for _, m := range ms {
		r := ix.Walk(m.VPN)
		if !r.Found {
			t.Fatalf("VPN %#x not found", uint64(m.VPN))
		}
		if r.Entry != m.Entry {
			t.Fatalf("VPN %#x wrong entry", uint64(m.VPN))
		}
	}
	// The index must stay within the paper's ballpark: Table 2 reports
	// 96–192 bytes for similar segment counts.
	if ix.SizeBytes() > 1024 {
		t.Errorf("segmented index size = %d bytes", ix.SizeBytes())
	}
	if ix.Depth() > DefaultParams().DLimit {
		t.Errorf("depth %d exceeds d_limit", ix.Depth())
	}
}

func TestUnmappedVPNNotFound(t *testing.T) {
	ix := build(t, segmented())
	for _, v := range []addr.VPN{0, 0x300, 0x2a80, 0x4a00, 0x6000} {
		if r := ix.Walk(v); r.Found {
			t.Errorf("unmapped VPN %#x translated", uint64(v))
		}
	}
}

func TestScatteredLayoutBounded(t *testing.T) {
	// A pre-normalization ASLR-scattered layout must stay correct and the
	// cost model must bound depth and index size even though the space is
	// pathological for even division (§4.2.3).
	ms := scattered()
	ix := build(t, ms)
	for _, m := range ms {
		if r := ix.Walk(m.VPN); !r.Found || r.Entry != m.Entry {
			t.Fatalf("VPN %#x lost in scattered layout", uint64(m.VPN))
		}
	}
	if ix.Depth() > DefaultParams().DLimit {
		t.Errorf("depth = %d > d_limit", ix.Depth())
	}
	if ix.SizeBytes() > 64<<10 {
		t.Errorf("pathological index grew to %d bytes", ix.SizeBytes())
	}
}

func TestLookupTranslatesOffsets(t *testing.T) {
	ix := build(t, seqMappings(100, 10))
	va := addr.VAOf(103) + 0x2a
	pa, ok := ix.Lookup(va)
	if !ok {
		t.Fatal("lookup failed")
	}
	want := addr.PA(uint64(0x1000+3)<<addr.PageShift + 0x2a)
	if pa != want {
		t.Errorf("pa = %#x want %#x", pa, want)
	}
	if _, ok := ix.Lookup(addr.VAOf(5000)); ok {
		t.Error("unmapped lookup succeeded")
	}
}

func TestDepthNeverExceedsDLimit(t *testing.T) {
	// An adversarially irregular space must still respect d_limit.
	rng := rand.New(rand.NewSource(42))
	var ms []Mapping
	v := addr.VPN(0x1000)
	for i := 0; i < 20000; i++ {
		v += addr.VPN(1 + rng.Intn(2000))
		ms = append(ms, Mapping{VPN: v, Entry: pte.New(addr.PPN(i+1), addr.Page4K)})
	}
	ix := build(t, ms)
	if ix.Depth() > DefaultParams().DLimit {
		t.Errorf("depth = %d > d_limit", ix.Depth())
	}
	for _, m := range ms {
		if r := ix.Walk(m.VPN); !r.Found || r.Entry != m.Entry {
			t.Fatalf("VPN %#x lost in irregular space", uint64(m.VPN))
		}
	}
}

func TestHugePages(t *testing.T) {
	// Mixed 4K and 2M mappings in one index (paper §4.4 / Fig. 6).
	var ms []Mapping
	for i := 0; i < 512; i++ {
		ms = append(ms, Mapping{VPN: addr.VPN(0x100 + i), Entry: pte.New(addr.PPN(i+1), addr.Page4K)})
	}
	// 2M pages at VPNs 1024, 1536, 2048 (aligned).
	for i := 0; i < 3; i++ {
		base := addr.VPN(1024 + i*512)
		ms = append(ms, Mapping{VPN: base, Entry: pte.New(addr.PPN(0x10000+i*512), addr.Page2M)})
	}
	ix := build(t, ms)

	// Any VPN inside a huge page must resolve to its entry.
	for _, v := range []addr.VPN{1024, 1100, 1535, 1536, 2000, 2048, 2500, 2559} {
		r := ix.Walk(v)
		if !r.Found {
			t.Fatalf("huge-page VPN %d not found", v)
		}
		if r.Entry.Size() != addr.Page2M {
			t.Fatalf("VPN %d returned size %s", v, r.Entry.Size())
		}
		wantBase := addr.AlignDown(v, addr.Page2M)
		//lint:allow addrtypes the test's synthetic mapping derives each expected PPN from the VPN by construction
		wantPPN := addr.PPN(0x10000 + (uint64(wantBase)-1024)/512*512)
		if r.Entry.PPN() != wantPPN {
			t.Fatalf("VPN %d ppn=%#x want %#x", v, uint64(r.Entry.PPN()), uint64(wantPPN))
		}
	}
	// VPNs outside all mappings must miss.
	if r := ix.Walk(2560); r.Found {
		t.Error("VPN beyond last huge page translated")
	}
	// Full-address translation preserves the 2M offset.
	va := addr.VAOf(1024) + 0x123456
	pa, ok := ix.Lookup(va)
	if !ok {
		t.Fatal("huge lookup failed")
	}
	if want := addr.PA(uint64(0x10000)<<addr.PageShift + 0x123456); pa != want {
		t.Errorf("huge pa = %#x want %#x", pa, want)
	}
}

// A huge page whose VPN is not aligned to its size could never be found
// (Walk probes the aligned base), so Insert refuses it and changes nothing.
func TestInsertRefusesUnalignedHugePage(t *testing.T) {
	var ms []Mapping
	for i := 0; i < 1000; i++ {
		ms = append(ms, Mapping{VPN: addr.VPN(0x5000 + i), Entry: pte.New(addr.PPN(i+1), addr.Page4K)})
	}
	ix := build(t, ms)
	before, stats := ix.MappedPages(), ix.Stats()
	for _, m := range []Mapping{
		{VPN: 0x5000 + 1000 + 8, Entry: pte.New(0x10000, addr.Page2M)},
		{VPN: 0x40000 + 512, Entry: pte.New(0x40000, addr.Page1G)},
	} {
		if err := ix.Insert(m); err == nil {
			t.Errorf("unaligned %s insert at %#x accepted", m.Entry.Size(), uint64(m.VPN))
		}
	}
	if ix.MappedPages() != before || ix.Stats() != stats {
		t.Errorf("refused inserts changed the index: mapped %d -> %d", before, ix.MappedPages())
	}
}

func TestInsertWithinBounds(t *testing.T) {
	// Space with holes; fill one in.
	var ms []Mapping
	for i := 0; i < 1000; i++ {
		if i%7 == 3 {
			continue // holes
		}
		ms = append(ms, Mapping{VPN: addr.VPN(0x5000 + i), Entry: pte.New(addr.PPN(i+1), addr.Page4K)})
	}
	ix := build(t, ms)
	before := ix.MappedPages()
	m := Mapping{VPN: 0x5000 + 3, Entry: pte.New(0x999, addr.Page4K)}
	if err := ix.Insert(m); err != nil {
		t.Fatal(err)
	}
	if ix.MappedPages() != before+1 {
		t.Errorf("mapped = %d want %d", ix.MappedPages(), before+1)
	}
	if r := ix.Walk(m.VPN); !r.Found || r.Entry != m.Entry {
		t.Error("inserted key not found")
	}
	// No structural churn for a within-bounds insert into a gap.
	s := ix.Stats()
	if s.Rebuilds != 0 {
		t.Errorf("rebuilds = %d", s.Rebuilds)
	}
}

func TestInsertEdgeHighBatchesAndRescales(t *testing.T) {
	p := DefaultParams()
	p.MinInsertDistance = 50                             // the paper's Fig. 5 example granule
	ix, err := Build(newMem(), seqMappings(500, 501), p) // VPNs 500..1000
	if err != nil {
		t.Fatal(err)
	}
	nodesBefore := ix.NodeCount()

	// Insert VPN 1030: close to the edge; range must extend to 1050
	// (batching) and the table must rescale without retraining.
	if err := ix.Insert(Mapping{VPN: 1030, Entry: pte.New(0xaaa, addr.Page4K)}); err != nil {
		t.Fatal(err)
	}
	s := ix.Stats()
	if s.EdgeExpansions != 1 {
		t.Errorf("edge expansions = %d", s.EdgeExpansions)
	}
	if s.Retrains != 0 || s.Rebuilds != 0 {
		t.Errorf("edge insert caused retrain=%d rebuild=%d", s.Retrains, s.Rebuilds)
	}
	if _, hi := ix.KeyRange(); hi != 1050 {
		t.Errorf("hiKey = %d want 1050", hi)
	}
	if ix.NodeCount() != nodesBefore {
		t.Errorf("node count changed: %d -> %d", nodesBefore, ix.NodeCount())
	}
	if r := ix.Walk(1030); !r.Found || r.Entry.PPN() != 0xaaa {
		t.Error("edge-inserted key not found")
	}
	// Old keys still resolve (the model did not move).
	for v := addr.VPN(500); v <= 1000; v += 37 {
		if r := ix.Walk(v); !r.Found {
			t.Fatalf("pre-existing VPN %d lost after edge expansion", v)
		}
	}
	// The batched window 1001..1050 accepts inserts with no further
	// expansion events.
	if err := ix.Insert(Mapping{VPN: 1045, Entry: pte.New(0xbbb, addr.Page4K)}); err != nil {
		t.Fatal(err)
	}
	if got := ix.Stats().EdgeExpansions; got != 1 {
		t.Errorf("insert into batched window caused expansion (%d)", got)
	}
}

func TestInsertEdgeLowRetrainsLocally(t *testing.T) {
	ix := build(t, seqMappings(10000, 1000))
	if err := ix.Insert(Mapping{VPN: 9990, Entry: pte.New(0xccc, addr.Page4K)}); err != nil {
		t.Fatal(err)
	}
	if r := ix.Walk(9990); !r.Found || r.Entry.PPN() != 0xccc {
		t.Error("below-edge key not found")
	}
	if lo, _ := ix.KeyRange(); lo != 9990 {
		t.Errorf("loKey = %d", lo)
	}
	s := ix.Stats()
	if s.Rebuilds != 0 {
		t.Errorf("below-edge insert rebuilt (%d)", s.Rebuilds)
	}
	for v := addr.VPN(10000); v < 11000; v += 101 {
		if r := ix.Walk(v); !r.Found {
			t.Fatalf("VPN %d lost after low-edge insert", v)
		}
	}
}

func TestInsertFarTriggersRebuild(t *testing.T) {
	ix := build(t, seqMappings(0x1000, 1000))
	far := addr.VPN(uint64(0x1000+1000) + DefaultParams().EdgeWindow + 100)
	if err := ix.Insert(Mapping{VPN: far, Entry: pte.New(0xddd, addr.Page4K)}); err != nil {
		t.Fatal(err)
	}
	if ix.Stats().Rebuilds != 1 {
		t.Errorf("rebuilds = %d want 1", ix.Stats().Rebuilds)
	}
	if r := ix.Walk(far); !r.Found {
		t.Error("far key not found after rebuild")
	}
	for v := addr.VPN(0x1000); v < 0x1000+1000; v += 97 {
		if r := ix.Walk(v); !r.Found {
			t.Fatalf("VPN %#x lost in rebuild", uint64(v))
		}
	}
}

func TestFreeKeepsIndex(t *testing.T) {
	ix := build(t, seqMappings(100, 500))
	sizeBefore := ix.SizeBytes()
	if !ix.Free(250) {
		t.Fatal("free failed")
	}
	if ix.Free(250) {
		t.Error("double free succeeded")
	}
	if r := ix.Walk(250); r.Found {
		t.Error("freed VPN still translates")
	}
	if ix.SizeBytes() != sizeBefore {
		t.Error("free changed the index structure (paper §5.2 forbids)")
	}
	// The gap is reusable: re-inserting lands without structural churn.
	if err := ix.Insert(Mapping{VPN: 250, Entry: pte.New(0xeee, addr.Page4K)}); err != nil {
		t.Fatal(err)
	}
	if r := ix.Walk(250); !r.Found || r.Entry.PPN() != 0xeee {
		t.Error("reused gap lookup failed")
	}
	if ix.Stats().Retrains != 0 {
		t.Errorf("gap reuse retrained (%d)", ix.Stats().Retrains)
	}
}

func TestSetFlags(t *testing.T) {
	ix := build(t, seqMappings(100, 10))
	if !ix.SetFlags(105, pte.FlagDirty|pte.FlagAccessed, 0) {
		t.Fatal("SetFlags failed")
	}
	r := ix.Walk(105)
	if !r.Entry.Dirty() || !r.Entry.Accessed() {
		t.Error("flags not visible after SetFlags")
	}
	if !ix.SetFlags(105, 0, pte.FlagDirty) {
		t.Fatal("clear failed")
	}
	if ix.Walk(105).Entry.Dirty() {
		t.Error("dirty flag not cleared")
	}
	if ix.SetFlags(9999, pte.FlagDirty, 0) {
		t.Error("SetFlags on unmapped VPN succeeded")
	}
}

func TestWalkReportsNodeTrace(t *testing.T) {
	ix := build(t, segmented())
	r := ix.Walk(0xa00)
	if !r.Found {
		t.Fatal("walk failed")
	}
	if len(r.Nodes) == 0 || len(r.Nodes) > DefaultParams().DLimit {
		t.Errorf("node trace length = %d", len(r.Nodes))
	}
	if r.Nodes[0].Level != 1 || r.Nodes[0].Offset != 0 {
		t.Errorf("walk must start at the root: %+v", r.Nodes[0])
	}
	for i := 1; i < len(r.Nodes); i++ {
		if r.Nodes[i].Level != r.Nodes[i-1].Level+1 {
			t.Errorf("non-consecutive levels in trace: %+v", r.Nodes)
		}
	}
	if len(r.PTEPAs) != r.PTEAccesses {
		t.Errorf("PTE PA trace (%d) disagrees with access count (%d)", len(r.PTEPAs), r.PTEAccesses)
	}
	// Node PAs must be 16-byte aligned and distinct per node.
	for _, n := range r.Nodes {
		if n.PA%NodeBytes != 0 {
			t.Errorf("node PA %#x misaligned", n.PA)
		}
	}
}

func TestCollisionRateRegularSpace(t *testing.T) {
	// Paper §7.3: regular spaces yield near-zero collision rates. Measure
	// over all mapped keys.
	ms := segmented()
	ix := build(t, ms)
	collisions := 0
	for _, m := range ms {
		if r := ix.Walk(m.VPN); r.Collided {
			collisions++
		}
	}
	rate := float64(collisions) / float64(len(ms))
	if rate > 0.01 {
		t.Errorf("collision rate = %.4f, want < 1%%", rate)
	}
}

func TestFragmentationAdaptsLeafTables(t *testing.T) {
	// Fragment physical memory down to ≤256 KB contiguity and build: LVM
	// must create more, smaller tables instead of failing (§4.2.2).
	mem := phys.New(256 << 20)
	mem.Fragment(5, phys.DatacenterFragmentation)
	mem.SetContiguityCap(6) // 256 KB

	ms := seqMappings(0x8000, 60000) // needs ~1.2 MB of PTE slots
	ix, err := Build(mem, ms, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(ms); i += 613 {
		if r := ix.Walk(ms[i].VPN); !r.Found {
			t.Fatalf("VPN %#x lost under fragmentation", uint64(ms[i].VPN))
		}
	}
	// No single contiguous run may exceed the contiguity cap.
	for _, l := range ix.levels {
		for _, n := range l {
			if n.isLeaf() && n.table.Extents() == 1 && n.table.FootprintBytes() > phys.BlockBytes(6) {
				t.Errorf("leaf table footprint %d exceeds 256KB contiguity in one run", n.table.FootprintBytes())
			}
		}
	}
}

func TestTableFootprintWithinGAScale(t *testing.T) {
	// §7.3 memory consumption: footprint ≤ ~GAScale × minimum, with slack
	// for page rounding.
	ms := seqMappings(0x1000, 100000)
	ix := build(t, ms)
	minBytes := uint64(len(ms)) * 16 // tagged slots are the minimum here
	foot := ix.TableFootprintBytes()
	if float64(foot) > float64(minBytes)*1.5 {
		t.Errorf("footprint %d > 1.5x minimum %d", foot, minBytes)
	}
}

func TestIndexSizeIndependentOfFootprint(t *testing.T) {
	// Table 2's scaling claim: same layout, larger footprint, same index.
	small := build(t, seqMappings(0x1000, 10000))
	large := build(t, seqMappings(0x1000, 400000))
	if small.SizeBytes() != large.SizeBytes() {
		t.Errorf("index size depends on footprint: %d vs %d bytes",
			small.SizeBytes(), large.SizeBytes())
	}
}

func TestReleaseReturnsMemory(t *testing.T) {
	mem := phys.New(256 << 20)
	free := mem.FreePages()
	ix, err := Build(mem, segmented(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ix.Release()
	if mem.FreePages() != free {
		t.Errorf("release leaked %d pages", free-mem.FreePages())
	}
}

func TestRebuildPreservesEverything(t *testing.T) {
	ms := segmented()
	ix := build(t, ms)
	if err := ix.Rebuild(); err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if r := ix.Walk(m.VPN); !r.Found || r.Entry != m.Entry {
			t.Fatalf("VPN %#x lost in rebuild", uint64(m.VPN))
		}
	}
	if ix.Stats().Rebuilds != 1 {
		t.Errorf("rebuilds = %d", ix.Stats().Rebuilds)
	}
}

func TestPeakIndexBytesTracked(t *testing.T) {
	ix := build(t, segmented())
	if ix.Stats().PeakIndexBytes < ix.SizeBytes() {
		t.Errorf("peak %d < current %d", ix.Stats().PeakIndexBytes, ix.SizeBytes())
	}
}

func TestSearchOverflowAccounting(t *testing.T) {
	// Force a leaf whose displaced keys exceed the hardware search bound:
	// the walk must still find them (software-assisted path) and count
	// the overflow.
	p := DefaultParams()
	mem := newMem()
	// A dense run plus a far singleton forces a relaxed mixed leaf at the
	// depth limit when MaxFanout is squeezed.
	p.MaxFanout = 2
	p.DLimit = 1
	var ms []Mapping
	for i := 0; i < 2000; i++ {
		ms = append(ms, Mapping{VPN: addr.VPN(0x1000 + i*3), Entry: pte.New(addr.PPN(i+1), addr.Page4K)})
	}
	ix, err := Build(mem, ms, p)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, m := range ms {
		r := ix.Walk(m.VPN)
		if r.Found {
			found++
		}
	}
	if found != len(ms) {
		t.Fatalf("lost %d keys", len(ms)-found)
	}
}

func TestInsertOverwriteNoDuplicates(t *testing.T) {
	// Overwriting a key repeatedly must never create duplicates, even in
	// leaves whose entries are displaced from their predictions.
	ix := build(t, seqMappings(0x1000, 5000))
	for round := 0; round < 5; round++ {
		for i := 0; i < 5000; i += 97 {
			m := Mapping{VPN: addr.VPN(0x1000 + i), Entry: pte.New(addr.PPN(0x9000+round), addr.Page4K)}
			if err := ix.Insert(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := ix.MappedPages(); got != 5000 {
		t.Fatalf("mapped = %d after overwrites, want 5000 (duplicates?)", got)
	}
}
