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
