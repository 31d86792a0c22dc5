package oskernel

import (
	"fmt"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
)

// launchAt launches smallSpace(5) as ASID 1 on a fresh machine of the given
// number of pages. A launch that fails must leave every page free.
func launchAt(t *testing.T, scheme Scheme, thp bool, pages uint64) error {
	t.Helper()
	mem := phys.New(pages << addr.PageShift)
	before := mem.FreePages()
	_, err := NewSystem(mem, scheme).Launch(1, smallSpace(5), thp)
	if err != nil {
		if got := mem.FreePages(); got != before {
			t.Errorf("%d pages: failed launch leaked %d pages (free %d -> %d): %v",
				pages, before-got, before, got, err)
		}
	}
	return err
}

// dataPagesOf is the number of data pages a launch of smallSpace(5)
// allocates.
func dataPagesOf(t *testing.T, scheme Scheme, thp bool) uint64 {
	t.Helper()
	sys := NewSystem(phys.New(256<<20), scheme)
	p, err := sys.Launch(1, smallSpace(5), thp)
	if err != nil {
		t.Fatal(err)
	}
	var n uint64
	for _, m := range p.launched {
		n += m.Entry.Size().BaseVPNs()
	}
	return n
}

// TestFailedLaunchFreesEverything: a launch that runs out of memory must
// give back every frame and table page it took, both when the data frames
// run out part-way and when they all fit but the table build does not.
// The second size is the largest failing one below the smallest machine
// the launch fits, found by bisection: there the table was nearly built.
func TestFailedLaunchFreesEverything(t *testing.T) {
	for _, scheme := range AllSchemes() {
		for _, thp := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/thp=%t", scheme, thp), func(t *testing.T) {
				data := dataPagesOf(t, scheme, thp)
				if launchAt(t, scheme, thp, data/2) == nil {
					t.Fatalf("launch fit in %d pages, half its %d data pages", data/2, data)
				}
				// Every data frame fits at lo, so what fails there is the
				// table; hi fits the whole launch.
				lo, hi := data, 4*data
				if launchAt(t, scheme, thp, lo) == nil {
					t.Fatalf("launch fit in its %d data pages with no table", lo)
				}
				if err := launchAt(t, scheme, thp, hi); err != nil {
					t.Fatalf("launch does not fit in %d pages: %v", hi, err)
				}
				for hi-lo > 1 {
					mid := lo + (hi-lo)/2
					if launchAt(t, scheme, thp, mid) == nil {
						hi = mid
					} else {
						lo = mid
					}
				}
				t.Logf("%d data pages; table build fails at %d pages, launch fits at %d", data, lo, hi)
			})
		}
	}
}

// TestLaunchRefusesLiveASIDs: relaunching a live ASID or launching the
// kernel's must fail before allocating anything, leaving the live table
// attached: the live process still translates and kills cleanly, and the
// kernel space still resolves through the hardware walker.
func TestLaunchRefusesLiveASIDs(t *testing.T) {
	for _, scheme := range AllSchemes() {
		t.Run(string(scheme), func(t *testing.T) {
			mem := phys.New(256 << 20)
			initial := mem.FreePages()
			sys := NewSystem(mem, scheme)
			p, err := sys.Launch(1, smallSpace(5), false)
			if err != nil {
				t.Fatal(err)
			}
			before := mem.FreePages()
			if _, err := sys.Launch(1, smallSpace(6), false); err == nil {
				t.Fatal("relaunch of a live ASID succeeded")
			}
			if got := mem.FreePages(); got != before {
				t.Fatalf("refused relaunch allocated %d pages", before-got)
			}
			v := heapOf(p.Space).Mapped[0]
			if out := sys.Walker().Walk(1, v); !out.Found {
				t.Fatal("live process lost its table to a refused relaunch")
			}
			if err := sys.Kill(1); err != nil {
				t.Fatal(err)
			}
			if got := mem.FreePages(); got != initial {
				t.Fatalf("leaked %d pages after kill", initial-got)
			}
		})
	}
	for _, scheme := range []Scheme{SchemeLVM, SchemeRadix} {
		t.Run("kernel/"+string(scheme), func(t *testing.T) {
			mem := phys.New(512 << 20)
			sys := NewSystem(mem, scheme)
			if err := sys.InstallKernel(sys.DefaultKernelLayout()); err != nil {
				t.Fatal(err)
			}
			before := mem.FreePages()
			if _, err := sys.Launch(KernelASID, smallSpace(5), false); err == nil {
				t.Fatal("launch of the kernel ASID succeeded")
			}
			if got := mem.FreePages(); got != before {
				t.Fatalf("refused kernel launch allocated %d pages", before-got)
			}
			if out := sys.Walker().Walk(KernelASID, KernelBaseVPN); !out.Found {
				t.Fatal("kernel walk lost to a refused launch")
			}
		})
	}
}
