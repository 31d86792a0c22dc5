package oskernel

import (
	"sort"
	"testing"

	"lvm/internal/phys"
)

// Close tears down every launched process in ascending ASID order. The
// kernel address space (ASID 0) is left in place; after Close the System
// can launch fresh processes against the same physical memory.
func (s *System) Close() {
	// Sorted order for the same reason Kill frees pages in VPN order: the
	// buddy allocator's free lists must not depend on map iteration.
	asids := make([]uint16, 0, len(s.procs))
	for asid := range s.procs {
		asids = append(asids, asid)
	}
	sort.Slice(asids, func(i, j int) bool { return asids[i] < asids[j] })
	for _, asid := range asids {
		if asid == KernelASID {
			continue
		}
		_ = s.Kill(asid) // cannot fail: asid came from the live proc table
	}
}

// TestCloseReleasesEverything launches several processes per scheme,
// closes the system, and verifies every page the launches consumed came
// back to the allocator, the kernel space survived, and the system can
// launch fresh processes afterwards — the per-tenant teardown path the
// serving daemon exercises for every finished session.
func TestCloseReleasesEverything(t *testing.T) {
	for _, scheme := range AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			mem := phys.New(512 << 20)
			sys := NewSystem(mem, scheme)
			baseline := mem.FreePages()
			for _, asid := range []uint16{1, 2, 3} {
				if _, err := sys.Launch(asid, smallSpace(int64(asid)), false); err != nil {
					t.Fatalf("launch %d: %v", asid, err)
				}
			}
			if mem.FreePages() == baseline {
				t.Fatal("launches consumed no memory; test is vacuous")
			}
			sys.Close()
			if got := mem.FreePages(); got != baseline {
				t.Errorf("FreePages after Close = %d, want pre-launch %d", got, baseline)
			}
			for _, asid := range []uint16{1, 2, 3} {
				if sys.Process(asid) != nil {
					t.Errorf("process %d survived Close", asid)
				}
			}
			// A second Close is a no-op, and the system remains usable.
			sys.Close()
			if _, err := sys.Launch(7, smallSpace(7), false); err != nil {
				t.Fatalf("launch after Close: %v", err)
			}
			if _, ok := sys.SoftwareLookup(7, heapOf(smallSpace(7)).Mapped[0]); !ok {
				t.Error("post-Close process cannot translate")
			}
		})
	}
}
