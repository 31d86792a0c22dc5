package oskernel

import (
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/vas"
)

// TestKillReturnsAllMemory: after launch + kill, the allocator must be back
// to exactly its pre-launch free-page count for every scheme — any
// discrepancy is a leak (table pages, data frames, or walk-cache-side
// allocations left behind).
func TestKillReturnsAllMemory(t *testing.T) {
	for _, scheme := range AllSchemes() {
		for _, thp := range []bool{false, true} {
			mem := phys.New(256 << 20)
			before := mem.FreePages()
			sys := NewSystem(mem, scheme)
			if _, err := sys.Launch(1, smallSpace(7), thp); err != nil {
				t.Fatalf("%s: launch: %v", scheme, err)
			}
			if mem.FreePages() == before {
				t.Fatalf("%s: launch allocated nothing", scheme)
			}
			if err := sys.Kill(1); err != nil {
				t.Fatalf("%s: kill: %v", scheme, err)
			}
			if got := mem.FreePages(); got != before {
				t.Errorf("%s thp=%t: leaked %d pages (free %d -> %d)",
					scheme, thp, before-got, before, got)
			}
		}
	}
}

// TestKillIsolatesSurvivors: killing one process must leave a co-resident
// process's translations intact in both software and hardware, while the
// killed ASID stops translating.
func TestKillIsolatesSurvivors(t *testing.T) {
	for _, scheme := range AllSchemes() {
		mem := phys.New(256 << 20)
		sys := NewSystem(mem, scheme)
		if _, err := sys.Launch(1, smallSpace(3), false); err != nil {
			t.Fatal(err)
		}
		p2, err := sys.Launch(2, smallSpace(4), false)
		if err != nil {
			t.Fatal(err)
		}
		victim := heapOf(sys.Process(1).Space).Mapped[0]
		survivor := heapOf(p2.Space).Mapped[0]

		if err := sys.Kill(1); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		w := sys.Walker()
		if out := w.Walk(1, victim); out.Found {
			t.Errorf("%s: killed ASID still translates", scheme)
		}
		if _, ok := sys.SoftwareLookup(1, victim); ok {
			t.Errorf("%s: killed ASID still in software tables", scheme)
		}
		if out := w.Walk(2, survivor); !out.Found {
			t.Errorf("%s: survivor lost its translation", scheme)
		}
	}
}

// TestKillASIDReuse: a killed ASID must be immediately reusable by a new
// process, with no stale walk-cache entries answering for the old one.
func TestKillASIDReuse(t *testing.T) {
	for _, scheme := range AllSchemes() {
		mem := phys.New(256 << 20)
		sys := NewSystem(mem, scheme)
		if _, err := sys.Launch(1, smallSpace(5), false); err != nil {
			t.Fatal(err)
		}
		// Warm the walk caches on the first incarnation.
		w := sys.Walker()
		old := heapOf(sys.Process(1).Space).Mapped
		for i := 0; i < len(old); i += 64 {
			w.Walk(1, old[i])
		}
		if err := sys.Kill(1); err != nil {
			t.Fatal(err)
		}
		p, err := sys.Launch(1, smallSpace(6), false)
		if err != nil {
			t.Fatalf("%s: relaunch with reused ASID: %v", scheme, err)
		}
		for _, r := range p.Space.Regions {
			for i := 0; i < len(r.Mapped); i += 97 {
				hw := w.Walk(1, r.Mapped[i])
				sw, ok := sys.SoftwareLookup(1, r.Mapped[i])
				if !ok || !hw.Found || hw.Entry != sw {
					t.Fatalf("%s: reused ASID mistranslates VPN %#x", scheme, uint64(r.Mapped[i]))
				}
			}
		}
	}
}

// TestKillErrors: the kernel address space and unknown ASIDs must be
// rejected; double-kill must fail the second time.
func TestKillErrors(t *testing.T) {
	mem := phys.New(256 << 20)
	sys := NewSystem(mem, SchemeLVM)
	if err := sys.Kill(KernelASID); err == nil {
		t.Error("killing the kernel succeeded")
	}
	if err := sys.Kill(42); err == nil {
		t.Error("killing an unknown ASID succeeded")
	}
	if _, err := sys.Launch(1, smallSpace(5), false); err != nil {
		t.Fatal(err)
	}
	if err := sys.Kill(1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Kill(1); err == nil {
		t.Error("double kill succeeded")
	}
}

// TestMapPage1GTakesWholeFrame maps a 1 GB page into a launched radix
// process: the frame behind it must be a whole order-MaxOrder block (2^18
// base pages), and Kill must return every page.
func TestMapPage1GTakesWholeFrame(t *testing.T) {
	mem := phys.New(2 << 30)
	before := mem.FreePages()
	sys := NewSystem(mem, SchemeRadix)
	// A few heap pages under the same top-level table entry as the 1 GB
	// page, so mapping it allocates no table pages of its own.
	heap := vas.Region{Kind: vas.Heap, Base: 0x1000, Span: 16}
	for i := 0; i < heap.Span; i++ {
		heap.Mapped = append(heap.Mapped, heap.Base+addr.VPN(i))
	}
	if _, err := sys.Launch(1, &vas.AddressSpace{Regions: []vas.Region{heap}}, false); err != nil {
		t.Fatal(err)
	}
	v := addr.VPN(addr.Page1G.BaseVPNs())
	launched := mem.FreePages()
	if err := sys.MapPage(1, v, addr.Page1G); err != nil {
		t.Fatal(err)
	}
	if took := launched - mem.FreePages(); took != 1<<18 {
		t.Errorf("1 GB MapPage took %d pages, want %d", took, 1<<18)
	}
	if e, ok := sys.SoftwareLookup(1, v+12345); !ok || e.Size() != addr.Page1G {
		t.Errorf("1 GB page does not translate: entry %v, found %t", e, ok)
	}
	if err := sys.Kill(1); err != nil {
		t.Fatal(err)
	}
	if got := mem.FreePages(); got != before {
		t.Errorf("leaked %d pages (free %d -> %d)", before-got, before, got)
	}
}

// TestMapPageRefusedByTableTakesNothing maps a 1 GB page on ECPT, which
// models 4 KB and 2 MB ways only: the table refuses it, and the refusal
// must hand the frame back and forget the page, so that a 4 KB map at the
// same VPN succeeds and Kill returns every page.
func TestMapPageRefusedByTableTakesNothing(t *testing.T) {
	mem := phys.New(2 << 30)
	before := mem.FreePages()
	sys := NewSystem(mem, SchemeECPT)
	heap := vas.Region{Kind: vas.Heap, Base: 0x1000, Span: 16}
	for i := 0; i < heap.Span; i++ {
		heap.Mapped = append(heap.Mapped, heap.Base+addr.VPN(i))
	}
	if _, err := sys.Launch(1, &vas.AddressSpace{Regions: []vas.Region{heap}}, false); err != nil {
		t.Fatal(err)
	}
	v := addr.VPN(addr.Page1G.BaseVPNs())
	launched := mem.FreePages()
	if err := sys.MapPage(1, v, addr.Page1G); err == nil {
		t.Fatal("ECPT accepted a 1 GB page")
	}
	if got := mem.FreePages(); got != launched {
		t.Errorf("refused 1 GB map kept %d pages", launched-got)
	}
	if e, ok := sys.SoftwareLookup(1, v); ok {
		t.Errorf("refused 1 GB page translates: %v", e)
	}
	if err := sys.MapPage(1, v, addr.Page4K); err != nil {
		t.Errorf("4 KB map where the 1 GB map was refused: %v", err)
	}
	if err := sys.Kill(1); err != nil {
		t.Fatal(err)
	}
	if got := mem.FreePages(); got != before {
		t.Errorf("leaked %d pages (free %d -> %d)", before-got, before, got)
	}
}

// TestLVMRefusesUntranslatable1GPage maps a 1 GB-aligned VPN inside a VMA
// on LVM. The normalizer keeps region bases only 2 MB-aligned, so the
// page's normalized key is not 1 GB-aligned and the index's walk, which
// probes the aligned base, could never find it: the index must refuse the
// insert, and MapPage must return the error without keeping a frame or
// charging the insert's management cycles.
func TestLVMRefusesUntranslatable1GPage(t *testing.T) {
	mem := phys.New(2 << 30)
	before := mem.FreePages()
	sys := NewSystem(mem, SchemeLVM)
	v := addr.VPN(addr.Page1G.BaseVPNs())
	// The VMA starts 16 mapped pages below v and extends over the whole
	// 1 GB page above it.
	heap := vas.Region{Kind: vas.Heap, Base: v - 16, Span: 16 + 1<<18}
	for i := 0; i < 16; i++ {
		heap.Mapped = append(heap.Mapped, heap.Base+addr.VPN(i))
	}
	p, err := sys.Launch(1, &vas.AddressSpace{Regions: []vas.Region{heap}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if k := p.Norm.Normalize(v); addr.Aligned(k, addr.Page1G) {
		t.Fatalf("normalized key %#x is 1 GB-aligned; the test needs one that is not", uint64(k))
	}
	launched, cycles := mem.FreePages(), p.MgmtCycles
	if err := sys.MapPage(1, v, addr.Page1G); err == nil {
		t.Fatal("LVM accepted a 1 GB page it cannot translate")
	}
	if got := mem.FreePages(); got != launched {
		t.Errorf("refused 1 GB map kept %d pages", launched-got)
	}
	if p.MgmtCycles != cycles {
		t.Errorf("refused 1 GB map charged management cycles: %d -> %d", cycles, p.MgmtCycles)
	}
	if e, ok := sys.SoftwareLookup(1, v+12345); ok {
		t.Errorf("refused 1 GB page translates: %v", e)
	}
	if err := sys.MapPage(1, v, addr.Page4K); err != nil {
		t.Errorf("4 KB map where the 1 GB map was refused: %v", err)
	}
	if err := sys.Kill(1); err != nil {
		t.Fatal(err)
	}
	if got := mem.FreePages(); got != before {
		t.Errorf("leaked %d pages (free %d -> %d)", before-got, before, got)
	}
}

// TestUnmapInteriorFreesHugeFrame unmaps a 2 MB page through a VPN inside
// it, on every scheme under THP: the page's whole order-9 frame must come
// back, MapPage must refuse an unaligned or already-covered VPN without
// allocating, and after a remap and Kill no page may be missing.
func TestUnmapInteriorFreesHugeFrame(t *testing.T) {
	cfg := vas.DefaultConfig()
	cfg.HeapPages = 4096
	cfg.MmapRegions = 1
	cfg.MmapPages = 1024
	cfg.HoleFraction = 0
	for _, scheme := range AllSchemes() {
		mem := phys.New(256 << 20)
		before := mem.FreePages()
		sys := NewSystem(mem, scheme)
		p, err := sys.Launch(1, vas.Generate(cfg, 7), true)
		if err != nil {
			t.Fatal(err)
		}
		var base addr.VPN
		for _, v := range heapOf(p.Space).Mapped {
			if e, ok := sys.SoftwareLookup(1, v); ok && e.Size() == addr.Page2M {
				base = addr.AlignDown(v, addr.Page2M)
				break
			}
		}
		if base == 0 {
			t.Fatalf("%s: no 2 MB page under THP", scheme)
		}
		free := mem.FreePages()
		if !sys.UnmapPage(1, base+100) {
			t.Fatalf("%s: interior unmap failed", scheme)
		}
		if got := mem.FreePages() - free; got != 512 {
			t.Errorf("%s: interior unmap returned %d pages, want 512", scheme, got)
		}
		if _, ok := sys.SoftwareLookup(1, base); ok || sys.UnmapPage(1, base) {
			t.Errorf("%s: unmapped 2 MB page still mapped", scheme)
		}
		if err := sys.MapPage(1, base+1, addr.Page2M); err == nil {
			t.Errorf("%s: unaligned 2 MB map accepted", scheme)
		}
		if err := sys.MapPage(1, base, addr.Page2M); err != nil {
			t.Fatalf("%s: remap: %v", scheme, err)
		}
		free = mem.FreePages()
		for _, v := range []addr.VPN{base, base + 7} {
			if err := sys.MapPage(1, v, addr.Page4K); err == nil {
				t.Errorf("%s: map of %#x inside a mapped 2 MB page accepted", scheme, uint64(v))
			}
		}
		if err := sys.MapPage(1, base, addr.Page2M); err == nil {
			t.Errorf("%s: double 2 MB map accepted", scheme)
		}
		if got := mem.FreePages(); got != free {
			t.Errorf("%s: refused maps took %d pages", scheme, free-got)
		}
		if err := sys.Kill(1); err != nil {
			t.Fatal(err)
		}
		if got := mem.FreePages(); got != before {
			t.Errorf("%s: leaked %d pages (free %d -> %d)", scheme, before-got, before, got)
		}
	}
}
