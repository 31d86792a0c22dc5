// Fragmentation scenario: LVM adapting its leaf page tables to the
// physical contiguity actually available (paper §4.2.2 / §7.3). The same
// address space is built on a fresh machine and on a datacenter-aged one
// with contiguity capped at 256 KB; translation keeps working and the
// index stays walkable.
//
// Run: go run ./examples/fragmentation
package main

import (
	"fmt"

	"lvm"
	"lvm/internal/phys"
)

func main() {
	cfg := lvm.DefaultLayout()
	cfg.HeapPages = 1 << 16 // 256 MB heap
	cfg.MmapRegions = 2
	cfg.MmapPages = 4096
	space := lvm.GenerateAddressSpace(cfg, 11)
	fmt.Printf("address space: %d mapped pages (%d MB)\n\n",
		space.TotalMapped(), space.FootprintBytes()>>20)

	for _, aged := range []bool{false, true} {
		mem := lvm.NewPhysicalMemory(2 << 30)
		label := "fresh machine (1GB blocks available)"
		if aged {
			mem.Fragment(7, phys.DatacenterFragmentation)
			mem.SetContiguityCap(6) // nothing above 256 KB
			label = "aged machine (≤256KB contiguity, 25% free)"
		}
		fmt.Printf("--- %s ---\n", label)
		fmt.Printf("largest allocatable block: %d KB\n", phys.BlockBytes(mem.MaxFreeOrder())>>10)

		sys := lvm.NewSystem(mem, lvm.SchemeLVM)
		p, err := sys.Launch(1, space, false)
		if err != nil {
			fmt.Println("launch failed:", err)
			continue
		}
		ix := p.LVMIndex()
		fmt.Printf("index: %d bytes, %d leaf tables (more, smaller tables under fragmentation)\n",
			ix.SizeBytes(), ix.LeafCount())

		// Verify translation end to end through the hardware walker.
		w := sys.Walker()
		checked, misses := 0, 0
		for _, r := range space.Regions {
			for i := 0; i < len(r.Mapped); i += 257 {
				checked++
				if out := w.Walk(1, r.Mapped[i]); !out.Found {
					misses++
				}
			}
		}
		fmt.Printf("hardware walks: %d checked, %d misses\n\n", checked, misses)
	}
}
