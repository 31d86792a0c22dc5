package oskernel

import (
	"fmt"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/core"
	"lvm/internal/phys"
	"lvm/internal/vas"
)

// guardBase is the first VPN of guardSpace's heap: 1 GB aligned, so the
// heap's first page is also its 1 GB base.
const guardBase addr.VPN = 0x1000_0000

// guardSpace is a hand-laid space for the fault guard. Its THP-eligible heap
// has four 2 MB chunks: chunk 0 full (one 2 MB page under THP); chunk 1 a 4
// KB page at its 2 MB boundary followed by a hole, then a run; chunk 2 a
// short run; chunk 3 full. A small non-THP region sits above it.
func guardSpace() *vas.AddressSpace {
	heap := vas.Region{Kind: vas.Heap, Base: guardBase, Span: 4 * 512, THPEligible: true}
	for i := 0; i < heap.Span; i++ {
		if i < 512 || i == 512 || (i >= 516 && i < 700) || (i >= 1024 && i < 1100) || i >= 1536 {
			heap.Mapped = append(heap.Mapped, guardBase+addr.VPN(i))
		}
	}
	lib := vas.Region{Kind: vas.Lib, Base: guardBase + 1<<20, Span: 64}
	for i := 0; i < lib.Span; i++ {
		lib.Mapped = append(lib.Mapped, lib.Base+addr.VPN(i))
	}
	return &vas.AddressSpace{Regions: []vas.Region{heap, lib}}
}

// guardHuge is the 1 GB-aligned VPN where the guard test maps a 1 GB page,
// above both regions: LVM's normalization keeps 2 MB alignment only, so a
// 1 GB page inside a region would not translate.
const guardHuge addr.VPN = guardBase + 1<<21

// guardGrow is the hole in heap chunk 2 where the guard test maps a 4 KB
// page, the first MapPage after launch.
const guardGrow = guardBase + 1200

// guardProbes are the VPNs the guard test checks in every state: every
// page guardSpace maps, huge-page interiors, holes, the VPN one past the
// 4 KB page at chunk 1's 2 MB boundary, and VPNs around both regions and
// the 1 GB page.
func guardProbes(space *vas.AddressSpace) []addr.VPN {
	probes := space.MappedVPNs()
	boundary := guardBase + 512
	probes = append(probes, guardGrow, guardGrow+1,
		0, guardBase-1, boundary+1, boundary+2, boundary+3, guardBase+700, guardBase+1023,
		guardBase+1100, guardBase+1535, guardBase+2048, guardBase+1<<20-1, guardBase+1<<20+64,
		guardHuge-1, guardHuge, guardHuge+1, guardHuge+12345, guardHuge+512, guardHuge+1<<18-1,
		guardHuge+1<<18, addr.MaxVPN)
	return probes
}

// checkGuard compares SoftwareLookup, frameAt and the table's own unguarded
// Lookup at every probe; for LVM, an unguarded walk of an unmapped probe
// must leave the index's counters as they were, so skipping it changes no
// reported number.
func checkGuard(t *testing.T, sys *System, p *Process, probes []addr.VPN, state string) {
	t.Helper()
	ix := p.LVMIndex()
	mapped := 0
	for _, v := range probes {
		var before, after core.IndexStats
		if ix != nil {
			before = ix.Stats()
		}
		raw, rawOK := p.pt.Lookup(v)
		if ix != nil {
			after = ix.Stats()
		}
		sw, swOK := sys.SoftwareLookup(p.ASID, v)
		_, _, rec := p.frameAt(v)
		if swOK != rawOK || sw != raw || rec != rawOK {
			t.Fatalf("%s: VPN %#x: software %v/%t, table %v/%t, frame record %t",
				state, uint64(v), sw, swOK, raw, rawOK, rec)
		}
		if !rawOK && before != after {
			t.Fatalf("%s: unguarded walk of unmapped VPN %#x moved the index stats: %+v -> %+v",
				state, uint64(v), before, after)
		}
		if rawOK {
			mapped++
		}
	}
	if mapped == 0 || mapped == len(probes) {
		t.Fatalf("%s: %d of %d probes mapped; want a mix", state, mapped, len(probes))
	}
}

// TestSoftwareLookupGuard checks, for every scheme × 4K/THP, that the fault
// guard gives exactly the table's answer straight after launch (only the
// launch record live), after a 4 KB MapPage (the VPN → frame map live),
// after a 1 GB MapPage, after unmapping the 2 MB-boundary 4 KB page, a huge
// page's interior and the 1 GB page, and after Kill.
func TestSoftwareLookupGuard(t *testing.T) {
	for _, scheme := range AllSchemes() {
		for _, thp := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/thp=%t", scheme, thp), func(t *testing.T) {
				sys := NewSystem(phys.New(2<<30), scheme)
				space := guardSpace()
				p, err := sys.Launch(1, space, thp)
				if err != nil {
					t.Fatal(err)
				}
				probes := guardProbes(space)
				checkGuard(t, sys, p, probes, "launched")
				// The guard reads launch's record in place: the VPN → frame
				// map is for mutations only.
				if p.dataPages != nil {
					t.Fatal("lookups built the VPN → frame map")
				}
				if err := sys.MapPage(1, guardGrow, addr.Page4K); err != nil {
					t.Fatal(err)
				}
				checkGuard(t, sys, p, probes, "mapped 4K")
				unmaps := []addr.VPN{guardBase + 512, guardBase + 100, guardGrow}
				// ECPT models 4 KB and 2 MB ways only.
				if scheme != SchemeECPT {
					if err := sys.MapPage(1, guardHuge, addr.Page1G); err != nil {
						t.Fatalf("1 GB map: %v", err)
					}
					if e, ok := sys.SoftwareLookup(1, guardHuge+12345); !ok || e.Size() != addr.Page1G {
						t.Fatalf("1 GB page does not translate: %v/%t", e, ok)
					}
					checkGuard(t, sys, p, probes, "mapped 1G")
					unmaps = append(unmaps, guardHuge+777)
				}
				for _, v := range unmaps {
					if !sys.UnmapPage(1, v) {
						t.Fatalf("unmap %#x failed", uint64(v))
					}
				}
				checkGuard(t, sys, p, probes, "unmapped")
				if err := sys.Kill(1); err != nil {
					t.Fatal(err)
				}
				for _, v := range probes {
					if _, ok := sys.SoftwareLookup(1, v); ok {
						t.Fatalf("killed: VPN %#x still translates", uint64(v))
					}
				}
			})
		}
	}
}

// TestUnmapFirstFreesOnce makes UnmapPage the first mutation after launch,
// on every scheme × 4K/THP: the page's frame must be freed once, so Kill
// brings the allocator back to its pre-launch count.
func TestUnmapFirstFreesOnce(t *testing.T) {
	for _, scheme := range AllSchemes() {
		for _, thp := range []bool{false, true} {
			mem := phys.New(256 << 20)
			free := mem.FreePages()
			sys := NewSystem(mem, scheme)
			p, err := sys.Launch(1, smallSpace(7), thp)
			if err != nil {
				t.Fatal(err)
			}
			if !sys.UnmapPage(1, heapOf(p.Space).Mapped[700]) {
				t.Fatalf("%s thp=%t: unmap failed", scheme, thp)
			}
			if err := sys.Kill(1); err != nil {
				t.Fatal(err)
			}
			if got := mem.FreePages(); got != free {
				t.Errorf("%s thp=%t: free pages %d after kill, want %d", scheme, thp, got, free)
			}
		}
	}
}

// BenchmarkSoftwareLookup times the OS's fault lookup on every scheme, over
// smallSpace(7) after one growth page is mapped (the state of a growing
// heap): "mapped" cycles through the heap's mapped pages, "unmapped"
// through the VPNs past the heap's end.
func BenchmarkSoftwareLookup(b *testing.B) {
	for _, scheme := range AllSchemes() {
		sys := NewSystem(phys.New(256<<20), scheme)
		p, err := sys.Launch(1, smallSpace(7), false)
		if err != nil {
			b.Fatal(err)
		}
		heap := heapOf(p.Space)
		end := heap.Base + addr.VPN(heap.Span)
		if err := sys.MapPage(1, end, addr.Page4K); err != nil {
			b.Fatal(err)
		}
		grow := make([]addr.VPN, 4096)
		for i := range grow {
			grow[i] = end + 1 + addr.VPN(i)
		}
		for _, c := range []struct {
			name string
			vs   []addr.VPN
			want bool
		}{{"mapped", heap.Mapped, true}, {"unmapped", grow, false}} {
			b.Run(fmt.Sprintf("%s/%s", scheme, c.name), func(b *testing.B) {
				i := 0
				for b.Loop() {
					if _, ok := sys.SoftwareLookup(1, c.vs[i]); ok != c.want {
						b.Fatalf("VPN %#x: mapped %t", uint64(c.vs[i]), ok)
					}
					if i++; i == len(c.vs) {
						i = 0
					}
				}
			})
		}
	}
}
