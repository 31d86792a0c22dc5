package phys

import (
	"testing"
	"testing/quick"

	"lvm/internal/addr"
)

const testMem = 64 << 20 // 64 MB

func TestNewAllFree(t *testing.T) {
	m := New(testMem)
	if m.FreePages() != m.TotalPages() {
		t.Errorf("fresh memory: free=%d total=%d", m.FreePages(), m.TotalPages())
	}
	if m.TotalPages() != testMem>>addr.PageShift {
		t.Errorf("total pages = %d", m.TotalPages())
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	m := New(testMem)
	base, err := m.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if m.FreePages() != m.TotalPages()-16 {
		t.Errorf("free after order-4 alloc = %d", m.FreePages())
	}
	m.Free(base, 4)
	if m.FreePages() != m.TotalPages() {
		t.Errorf("free after release = %d", m.FreePages())
	}
}

func TestAllocAlignment(t *testing.T) {
	m := New(testMem)
	for order := 0; order <= 10; order++ {
		base, err := m.Alloc(order)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(base)%blockPages(order) != 0 {
			t.Errorf("order-%d block at %#x not naturally aligned", order, uint64(base))
		}
	}
}

func TestAllocDistinct(t *testing.T) {
	m := New(1 << 20) // 256 pages
	seen := map[addr.PPN]bool{}
	for {
		p, err := m.Alloc(0)
		if err != nil {
			break
		}
		if seen[p] {
			t.Fatalf("page %#x handed out twice", uint64(p))
		}
		seen[p] = true
	}
	if len(seen) != 256 {
		t.Errorf("allocated %d pages from 256-page memory", len(seen))
	}
}

func TestExhaustion(t *testing.T) {
	m := New(1 << 20)
	for i := 0; i < 256; i++ {
		if _, err := m.Alloc(0); err != nil {
			t.Fatalf("alloc %d failed early: %v", i, err)
		}
	}
	if _, err := m.Alloc(0); err != ErrNoMemory {
		t.Errorf("expected ErrNoMemory, got %v", err)
	}
}

func TestCoalescing(t *testing.T) {
	m := New(1 << 20)
	var pages []addr.PPN
	for i := 0; i < 256; i++ {
		p, _ := m.Alloc(0)
		pages = append(pages, p)
	}
	for _, p := range pages {
		m.Free(p, 0)
	}
	// Everything freed: the memory must coalesce back so a max-size block
	// is allocatable again.
	if got := m.MaxFreeOrder(); got != 8 { // 256 pages = order 8
		t.Errorf("MaxFreeOrder after full free = %d want 8", got)
	}
}

func TestDoubleFreepanics(t *testing.T) {
	m := New(1 << 20)
	p, _ := m.Alloc(0)
	m.Free(p, 0)
	defer func() {
		if recover() == nil {
			t.Error("double free must panic")
		}
	}()
	m.Free(p, 0)
}

func TestWrongOrderFreePanics(t *testing.T) {
	m := New(1 << 20)
	p, _ := m.Alloc(2)
	defer func() {
		if recover() == nil {
			t.Error("free with wrong order must panic")
		}
	}()
	m.Free(p, 3)
}

func TestContiguityCap(t *testing.T) {
	m := New(testMem)
	m.SetContiguityCap(6) // 256 KB
	if _, err := m.Alloc(7); err != ErrNoMemory {
		t.Errorf("alloc above cap: err = %v", err)
	}
	if _, err := m.Alloc(6); err != nil {
		t.Errorf("alloc at cap: err = %v", err)
	}
	if got := m.MaxFreeOrder(); got != 6 {
		t.Errorf("MaxFreeOrder with cap = %d", got)
	}
	m.SetContiguityCap(-1)
	if _, err := m.Alloc(10); err != nil {
		t.Errorf("alloc after removing cap: %v", err)
	}
}

func TestContiguousFreeFractionFresh(t *testing.T) {
	m := New(testMem)
	// Fresh memory is one giant run: 100% of free memory is allocatable at
	// every order up to the memory size.
	if got := m.ContiguousFreeFraction(10); got != 1.0 {
		t.Errorf("fresh contiguous fraction at order 10 = %v", got)
	}
}

func TestFragmentShape(t *testing.T) {
	m := New(testMem)
	m.Fragment(1, DatacenterFragmentation)
	checkBuddy(t, m)

	free := float64(m.FreePages()) / float64(m.TotalPages())
	if free < 0.15 || free > 0.35 {
		t.Errorf("fragmented free fraction = %v, want ≈0.25", free)
	}
	// Figure 3 shape: small contiguity plentiful, large contiguity gone.
	small := m.ContiguousFreeFraction(3)   // 32 KB
	mid := m.ContiguousFreeFraction(6)     // 256 KB
	large := m.ContiguousFreeFraction(13)  // 32 MB
	larger := m.ContiguousFreeFraction(16) // 256 MB
	if small < 0.5 {
		t.Errorf("32KB contiguity = %.2f, want most free memory", small)
	}
	if mid <= large {
		t.Errorf("contiguity must fall with size: 256KB=%.3f 32MB=%.3f", mid, large)
	}
	if larger > 0.01 {
		t.Errorf("256MB contiguity = %.3f, want ≈0 (paper Fig. 3)", larger)
	}
}

func TestFMFI(t *testing.T) {
	m := New(testMem)
	if got := m.FMFI(9); got != 0 {
		t.Errorf("fresh FMFI = %v", got)
	}
	m.Fragment(7, DatacenterFragmentation)
	checkBuddy(t, m)
	if got := m.FMFI(9); got <= 0.2 {
		t.Errorf("fragmented FMFI(2MB) = %v, want high", got)
	}
	if got := m.FMFI(0); got != 0 {
		t.Errorf("FMFI at order 0 must be 0 (any free page works), got %v", got)
	}
}

func TestFragmentToFMFI(t *testing.T) {
	m := New(testMem)
	m.FragmentToFMFI(3, 9, 0.8)
	checkBuddy(t, m)
	if got := m.FMFI(9); got < 0.8 {
		t.Errorf("FMFI after targeting 0.8 = %v", got)
	}
	// Even at FMFI 0.9-class fragmentation, small allocations must still
	// succeed — this is the property LVM's adaptive leaf sizing relies on.
	if _, err := m.Alloc(0); err != nil {
		t.Errorf("order-0 alloc under fragmentation failed: %v", err)
	}
}

func TestOrderForBytes(t *testing.T) {
	cases := []struct {
		bytes uint64
		want  int
	}{
		{1, 0},
		{4096, 0},
		{4097, 1},
		{8192, 1},
		{256 << 10, 6},
		{2 << 20, 9},
		{1 << 30, 18},
	}
	for _, c := range cases {
		if got := OrderForBytes(c.bytes); got != c.want {
			t.Errorf("OrderForBytes(%d) = %d want %d", c.bytes, got, c.want)
		}
	}
}

func TestQuickAllocFreeConservesPages(t *testing.T) {
	// Property: any interleaving of allocs and frees conserves pages.
	f := func(ops []uint8) bool {
		m := New(4 << 20)
		type block struct {
			base  addr.PPN
			order int
		}
		var live []block
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				order := int(op % 5)
				base, err := m.Alloc(order)
				if err == nil {
					live = append(live, block{base, order})
				}
			} else {
				i := int(op) % len(live)
				m.Free(live[i].base, live[i].order)
				live = append(live[:i], live[i+1:]...)
			}
			var held uint64
			for _, b := range live {
				held += blockPages(b.order)
			}
			if m.FreePages()+held != m.TotalPages() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
