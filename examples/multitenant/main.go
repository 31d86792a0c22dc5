// Multi-tenant scenario: several processes share one machine under LVM,
// including the kernel's own shared learned index (paper §5.2). Each tenant
// gets a private per-process index a few hundred bytes in size; map/unmap
// churn in one tenant leaves the others untouched, and the ASID-tagged LWC
// needs no flush on context switch (paper §4.6.2, §7.1).
//
// Run: go run ./examples/multitenant
package main

import (
	"fmt"

	"lvm"
)

func main() {
	mem := lvm.NewPhysicalMemory(2 << 30)
	sys := lvm.NewSystem(mem, lvm.SchemeLVM)

	// The kernel installs its own shared index once at boot: direct map,
	// vmalloc, and text/data regions, shared by every address space.
	if err := sys.InstallKernel(sys.DefaultKernelLayout()); err != nil {
		panic(err)
	}
	fmt.Printf("kernel: %d mappings in a %d-byte shared index\n\n",
		sys.KernelMappings(), sys.KernelIndexBytes())

	// Launch four tenants with different layouts (different ASLR seeds and
	// region mixes — a web server, two analytics jobs, a cache).
	layouts := []struct {
		name      string
		heapPages int
		seed      int64
	}{
		{"webserver", 16384, 11},
		{"analytics-1", 65536, 22},
		{"analytics-2", 65536, 33},
		{"cache", 32768, 44},
	}
	fmt.Printf("%-12s %6s %14s %12s %7s\n",
		"tenant", "asid", "mapped pages", "index bytes", "depth")
	for i, l := range layouts {
		cfg := lvm.DefaultLayout()
		cfg.HeapPages = l.heapPages
		cfg.MmapPages = l.heapPages / 8
		space := lvm.GenerateAddressSpace(cfg, l.seed)
		asid := uint16(i + 1)
		p, err := sys.Launch(asid, space, false)
		if err != nil {
			panic(err)
		}
		ix := p.LVMIndex()
		fmt.Printf("%-12s %6d %14d %12d %7d\n", l.name, asid, ix.MappedPages(), ix.SizeBytes(), ix.Depth())
	}

	// Tenant 2 churns: unmap then remap a window of its heap. Count the
	// retrain-class events it causes and prove the other tenants' indices
	// and translations are untouched.
	fmt.Println("\ntenant analytics-1 (asid 2) unmaps and remaps 2048 heap pages...")
	p2 := sys.Process(2)
	before := map[uint16]int{}
	for asid := uint16(1); asid <= 4; asid++ {
		before[asid] = sys.Process(asid).LVMIndex().SizeBytes()
	}
	heap := p2.Space.Regions[0]
	for i := range p2.Space.Regions {
		if len(p2.Space.Regions[i].Mapped) > len(heap.Mapped) {
			heap = p2.Space.Regions[i]
		}
	}
	churned := 0
	for _, v := range heap.Mapped {
		if churned == 2048 {
			break
		}
		if sys.UnmapPage(2, v) {
			if err := sys.MapPage(2, v, lvm.Page4K); err != nil {
				panic(err)
			}
			churned++
		}
	}
	st := p2.LVMIndex().Stats()
	fmt.Printf("churned %d pages: %d retrains, %d rebuilds in asid 2\n",
		churned, st.Retrains, st.Rebuilds)
	for asid := uint16(1); asid <= 4; asid++ {
		if asid == 2 {
			continue
		}
		if got := sys.Process(asid).LVMIndex().SizeBytes(); got != before[asid] {
			panic(fmt.Sprintf("asid %d index changed: %d -> %d", asid, before[asid], got))
		}
	}
	fmt.Println("other tenants' indices unchanged — per-process isolation holds")

	// Every tenant still translates every one of its pages through the
	// shared hardware walker, with the LWC tagged by ASID.
	w := sys.Walker()
	for asid := uint16(1); asid <= 4; asid++ {
		p := sys.Process(asid)
		for _, r := range p.Space.Regions {
			for i := 0; i < len(r.Mapped); i += 257 {
				if out := w.Walk(asid, r.Mapped[i]); !out.Found {
					panic(fmt.Sprintf("asid %d lost VPN %#x", asid, uint64(r.Mapped[i])))
				}
			}
		}
	}
	lwc := sys.LVMWalker().LWC()
	fmt.Printf("\nall tenants translate correctly; shared LWC hit rate %.1f%% "+
		"(ASID-tagged, never flushed on context switch)\n", 100*lwc.HitRate())

	// Tenant exit: frames, gapped tables, index node arrays, and LWC
	// entries all return to the system.
	freeBefore := mem.FreePages()
	if err := sys.Kill(3); err != nil {
		panic(err)
	}
	fmt.Printf("\nkilled analytics-2: %d pages (%d MB) returned to the allocator\n",
		mem.FreePages()-freeBefore, (mem.FreePages()-freeBefore)>>8)
	if out := w.Walk(3, heap.Mapped[0]); out.Found {
		panic("dead tenant still translates")
	}
	if out := w.Walk(4, sys.Process(4).Space.Regions[0].Mapped[0]); !out.Found {
		panic("survivor lost translations")
	}
	fmt.Println("dead ASID no longer translates; survivors unaffected")
}
