package oskernel

import (
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/vas"
)

func smallSpace(seed int64) *vas.AddressSpace {
	cfg := vas.DefaultConfig()
	cfg.HeapPages = 4096
	cfg.MmapPages = 1024
	cfg.MmapRegions = 2
	return vas.Generate(cfg, seed)
}

func launch(t *testing.T, scheme Scheme, thp bool) (*System, *Process) {
	t.Helper()
	mem := phys.New(256 << 20)
	sys := NewSystem(mem, scheme)
	p, err := sys.Launch(1, smallSpace(7), thp)
	if err != nil {
		t.Fatalf("%s: launch: %v", scheme, err)
	}
	return sys, p
}

func TestLaunchAllSchemes(t *testing.T) {
	for _, scheme := range AllSchemes() {
		for _, thp := range []bool{false, true} {
			sys, p := launch(t, scheme, thp)
			// Every mapped page translates through the hardware walker.
			w := sys.Walker()
			checked := 0
			for _, r := range p.Space.Regions {
				for i := 0; i < len(r.Mapped); i += 97 {
					v := r.Mapped[i]
					out := w.Walk(1, v)
					if !out.Found {
						t.Fatalf("%s thp=%t: VPN %#x not translated", scheme, thp, uint64(v))
					}
					if out.Refs() < 1 {
						t.Fatalf("%s: walk with zero memory refs", scheme)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no pages checked")
			}
		}
	}
}

func TestWalkerAgreesWithSoftwareLookup(t *testing.T) {
	for _, scheme := range AllSchemes() {
		sys, p := launch(t, scheme, true)
		w := sys.Walker()
		for _, r := range p.Space.Regions {
			for i := 0; i < len(r.Mapped); i += 131 {
				v := r.Mapped[i]
				hw := w.Walk(1, v)
				sw, ok := sys.SoftwareLookup(1, v)
				if !ok || !hw.Found || hw.Entry != sw {
					t.Fatalf("%s: hw/sw disagree at %#x", scheme, uint64(v))
				}
			}
		}
	}
}

func TestTHPReducesWalks(t *testing.T) {
	// With THP, translations per footprint shrink; verify 2MB entries
	// appear for the LVM scheme. Use a hole-free heap so full 512-page
	// runs exist.
	mem := phys.New(256 << 20)
	sys := NewSystem(mem, SchemeLVM)
	cfg := vas.DefaultConfig()
	cfg.HeapPages = 4096
	cfg.MmapRegions = 1
	cfg.MmapPages = 1024
	cfg.HoleFraction = 0
	p, err := sys.Launch(1, vas.Generate(cfg, 7), true)
	if err != nil {
		t.Fatal(err)
	}
	w := sys.Walker()
	huge := 0
	for _, r := range p.Space.Regions {
		for i := 0; i < len(r.Mapped); i += 64 {
			if out := w.Walk(1, r.Mapped[i]); out.Found && out.Entry.Size() == addr.Page2M {
				huge++
			}
		}
	}
	if huge == 0 {
		t.Error("no huge translations under THP")
	}
	_ = sys
}

func TestMapUnmapDynamic(t *testing.T) {
	for _, scheme := range AllSchemes() {
		sys, p := launch(t, scheme, false)
		heap := heapOf(p.Space)
		// Map a page in a heap hole or beyond the mapped tail.
		v := heap.Base + addr.VPN(heap.Span-1)
		if _, ok := sys.SoftwareLookup(1, v); ok {
			t.Logf("%s: tail already mapped; skipping", scheme)
			continue
		}
		if err := sys.MapPage(1, v, addr.Page4K); err != nil {
			t.Fatalf("%s: MapPage: %v", scheme, err)
		}
		if out := sys.Walker().Walk(1, v); !out.Found {
			t.Fatalf("%s: dynamically mapped page not translated", scheme)
		}
		if !sys.UnmapPage(1, v) {
			t.Fatalf("%s: unmap failed", scheme)
		}
		if out := sys.Walker().Walk(1, v); out.Found {
			t.Fatalf("%s: unmapped page still translated", scheme)
		}
	}
}

func heapOf(s *vas.AddressSpace) *vas.Region {
	for i := range s.Regions {
		if s.Regions[i].Kind == vas.Heap {
			return &s.Regions[i]
		}
	}
	panic("no heap")
}

func TestLVMHeapGrowthUsesEdgePath(t *testing.T) {
	mem := phys.New(256 << 20)
	sys := NewSystem(mem, SchemeLVM)
	// A heap with room to grow: span 8192, only first 4096 mapped.
	cfg := vas.DefaultConfig()
	cfg.HeapPages = 8192
	cfg.MmapRegions = 1
	cfg.MmapPages = 512
	space := vas.Generate(cfg, 3)
	heap := heapOf(space)
	heap.Mapped = heap.Mapped[:0]
	for i := 0; i < 4096; i++ {
		heap.Mapped = append(heap.Mapped, heap.Base+addr.VPN(i))
	}
	p, err := sys.Launch(1, space, false)
	if err != nil {
		t.Fatal(err)
	}
	rebuildsBefore := p.LVMIndex().Stats().Rebuilds
	// Grow the heap page by page — the common contiguous-expansion
	// pattern (§4.3.4): no rebuilds should occur.
	for i := 4096; i < 6000; i++ {
		if err := sys.MapPage(1, heap.Base+addr.VPN(i), addr.Page4K); err != nil {
			t.Fatalf("grow %d: %v", i, err)
		}
	}
	s := p.LVMIndex().Stats()
	if s.Rebuilds != rebuildsBefore {
		t.Errorf("heap growth triggered %d rebuilds", s.Rebuilds-rebuildsBefore)
	}
	// All grown pages translate.
	w := sys.Walker()
	for i := 4096; i < 6000; i += 111 {
		if out := w.Walk(1, heap.Base+addr.VPN(i)); !out.Found {
			t.Fatalf("grown page %d not translated", i)
		}
	}
	// Management cost was accounted.
	if p.MgmtCycles == 0 {
		t.Error("no management cycles recorded")
	}
}

func TestLVMRetrainStatsWithinPaperRange(t *testing.T) {
	// §7.3: retrains at most 3, on average 2, over a full run. Exercise a
	// launch plus sustained growth and check the count stays tiny.
	mem := phys.New(512 << 20)
	sys := NewSystem(mem, SchemeLVM)
	cfg := vas.DefaultConfig()
	cfg.HeapPages = 1 << 15
	cfg.MmapRegions = 2
	cfg.MmapPages = 4096
	space := vas.Generate(cfg, 5)
	heap := heapOf(space)
	heap.Mapped = heap.Mapped[:1<<14]
	p, err := sys.Launch(1, space, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1 << 14; i < 1<<15; i++ {
		// The kept pages reach past index 1<<14 (the heap has holes);
		// growth maps only the pages that are not there yet.
		v := heap.Base + addr.VPN(i)
		if _, ok := sys.SoftwareLookup(1, v); ok {
			continue
		}
		if err := sys.MapPage(1, v, addr.Page4K); err != nil {
			t.Fatal(err)
		}
	}
	s := p.LVMIndex().Stats()
	// §7.3: retraining events are at most 3 (average 2) over a full run;
	// rebuilds and retrains are both full-model-refresh events.
	if s.Retrains+s.Rebuilds > 3 {
		t.Errorf("retrains+rebuilds = %d+%d, paper reports ≤ 3 total", s.Retrains, s.Rebuilds)
	}
}

func TestTableOverheadOrdering(t *testing.T) {
	// §7.3 memory consumption: LVM ≤ ~1.3× minimum; ECPT overhead larger.
	mem1 := phys.New(512 << 20)
	lvm := NewSystem(mem1, SchemeLVM)
	cfg := vas.DefaultConfig()
	cfg.HeapPages = 1 << 15
	cfg.MmapRegions = 2
	cfg.MmapPages = 4096
	if _, err := lvm.Launch(1, vas.Generate(cfg, 9), false); err != nil {
		t.Fatal(err)
	}
	mem2 := phys.New(512 << 20)
	ec := NewSystem(mem2, SchemeECPT)
	if _, err := ec.Launch(1, vas.Generate(cfg, 9), false); err != nil {
		t.Fatal(err)
	}
	lvmOver := lvm.TableOverheadBytes(1)
	ecptOver := ec.TableOverheadBytes(1)
	if lvmOver >= ecptOver {
		t.Errorf("LVM overhead %d ≥ ECPT overhead %d, paper shows the reverse", lvmOver, ecptOver)
	}
}

func TestNormalizationTransparent(t *testing.T) {
	// ASLR on vs off must not change LVM translation results.
	sys, p := launch(t, SchemeLVM, false)
	w := sys.Walker()
	for _, r := range p.Space.Regions {
		for i := 0; i < len(r.Mapped); i += 53 {
			v := r.Mapped[i]
			out := w.Walk(1, v)
			if !out.Found {
				t.Fatalf("ASLR'd VPN %#x failed", uint64(v))
			}
		}
	}
	if v := p.Space.Regions[0].Mapped[0]; p.Norm.Normalize(v) == v {
		t.Errorf("normalizer leaves ASLR'd VPN %#x in place", uint64(v))
	}
}
