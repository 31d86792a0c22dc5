package gapped

import (
	"testing"
	"testing/quick"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

func newMem() *phys.Memory { return phys.New(64 << 20) }

func TestNewCapacityRoundsToPages(t *testing.T) {
	m := newMem()
	tb, err := New(m, 10, phys.MaxOrder)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Slots() != SlotsPerPage {
		t.Errorf("capacity = %d slots, want one page (%d)", tb.Slots(), SlotsPerPage)
	}
	if tb.Extents() != 1 {
		t.Errorf("fresh table has %d extents", tb.Extents())
	}
	if tb.FootprintBytes() != addr.PageSize4K {
		t.Errorf("footprint = %d", tb.FootprintBytes())
	}
}

func TestNewRespectsContiguityLimit(t *testing.T) {
	m := newMem()
	// Ask for a big table while only order-2 contiguity is allowed.
	tb, err := New(m, 100000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tb.FootprintBytes() != phys.BlockBytes(2) {
		t.Errorf("capped table footprint = %d want %d", tb.FootprintBytes(), phys.BlockBytes(2))
	}
}

func TestInsertAtPrediction(t *testing.T) {
	m := newMem()
	tb, _ := New(m, 256, phys.MaxOrder)
	slot, collided, err := tb.Insert(42, 139, pte.New(0xff, addr.Page4K), 16)
	if err != nil || collided || slot != 42 {
		t.Fatalf("insert: slot=%d collided=%t err=%v", slot, collided, err)
	}
	if tb.Used() != 1 {
		t.Errorf("used = %d", tb.Used())
	}
	res := tb.Lookup(42, 139, 3)
	if !res.Found || res.Accesses != 1 {
		t.Errorf("lookup: found=%t accesses=%d", res.Found, res.Accesses)
	}
	if res.Entry.PPN() != 0xff {
		t.Errorf("entry ppn = %#x", uint64(res.Entry.PPN()))
	}
}

func TestInsertCollisionFindsNeighbour(t *testing.T) {
	m := newMem()
	tb, _ := New(m, 256, phys.MaxOrder)
	tb.Insert(10, 100, pte.New(1, addr.Page4K), 16)
	slot, collided, err := tb.Insert(10, 200, pte.New(2, addr.Page4K), 16)
	if err != nil {
		t.Fatal(err)
	}
	if !collided {
		t.Error("second insert at same prediction must report a collision")
	}
	if slot == 10 {
		t.Error("collided insert must use a different slot")
	}
	// Both keys remain findable.
	if r := tb.Lookup(10, 100, 3); !r.Found {
		t.Error("first key lost")
	}
	if r := tb.Lookup(10, 200, 3); !r.Found {
		t.Error("second key lost")
	}
}

func TestInsertOverwriteSameKey(t *testing.T) {
	m := newMem()
	tb, _ := New(m, 256, phys.MaxOrder)
	tb.Insert(5, 77, pte.New(1, addr.Page4K), 16)
	slot, collided, err := tb.Insert(5, 77, pte.New(9, addr.Page4K), 16)
	if err != nil || collided || slot != 5 {
		t.Fatalf("overwrite: slot=%d collided=%t err=%v", slot, collided, err)
	}
	if tb.Used() != 1 {
		t.Errorf("used = %d after overwrite", tb.Used())
	}
	if r := tb.Lookup(5, 77, 3); r.Entry.PPN() != 9 {
		t.Errorf("overwritten ppn = %d", r.Entry.PPN())
	}
}

func TestInsertReachExhausted(t *testing.T) {
	m := newMem()
	tb, _ := New(m, 256, phys.MaxOrder)
	// Fill slots 0..20 around prediction 10.
	for i := 0; i <= 20; i++ {
		tb.Set(i, pte.Tagged{Tag: addr.VPN(1000 + i), Entry: pte.New(addr.PPN(i), addr.Page4K)})
	}
	_, _, err := tb.Insert(10, 5555, pte.New(9, addr.Page4K), 5)
	if err != ErrFull {
		t.Errorf("expected ErrFull, got %v", err)
	}
}

func TestLookupBoundedSearch(t *testing.T) {
	m := newMem()
	tb, _ := New(m, 256, phys.MaxOrder)
	// Entry lives 2 clusters away from the prediction.
	tb.Set(40, pte.Tagged{Tag: 7, Entry: pte.New(3, addr.Page4K)})
	res := tb.Lookup(32, 7, 3) // prediction in cluster 8, entry in cluster 10
	if !res.Found {
		t.Fatal("bounded search must find the entry")
	}
	if res.Accesses < 2 {
		t.Errorf("accesses = %d, entry was outside predicted cluster", res.Accesses)
	}
	// With a zero extra budget, the same lookup must fail.
	res = tb.Lookup(32, 7, 0)
	if res.Found {
		t.Error("C_err=0 lookup must not find a distant entry")
	}
	if res.Accesses != 1 {
		t.Errorf("C_err=0 must do exactly one access, did %d", res.Accesses)
	}
}

func TestLookupAccessBound(t *testing.T) {
	m := newMem()
	tb, _ := New(m, 1024, phys.MaxOrder)
	for _, maxExtra := range []int{0, 1, 2, 3} {
		res := tb.Lookup(512, 99999, maxExtra) // miss
		if res.Found {
			t.Fatal("found nonexistent key")
		}
		if res.Accesses > maxExtra+1 {
			t.Errorf("maxExtra=%d but %d accesses", maxExtra, res.Accesses)
		}
	}
}

func TestLookupHugePage(t *testing.T) {
	m := newMem()
	tb, _ := New(m, 256, phys.MaxOrder)
	// 2MB page tagged with first sub-page VPN 1024 (paper §4.4).
	tb.Set(100, pte.Tagged{Tag: 1024, Entry: pte.New(512, addr.Page2M)})
	res := tb.Lookup(100, 1300, 0) // any VPN inside the huge page
	if !res.Found {
		t.Fatal("huge-page lookup failed")
	}
	if res.Entry.Size() != addr.Page2M {
		t.Errorf("size = %s", res.Entry.Size())
	}
}

func TestErase(t *testing.T) {
	m := newMem()
	tb, _ := New(m, 256, phys.MaxOrder)
	tb.Insert(8, 77, pte.New(1, addr.Page4K), 16)
	if !tb.Erase(8, 77, 16) {
		t.Fatal("erase failed")
	}
	if tb.Used() != 0 {
		t.Errorf("used = %d after erase", tb.Used())
	}
	if tb.Lookup(8, 77, 3).Found {
		t.Error("erased key still found")
	}
	if tb.Erase(8, 77, 16) {
		t.Error("second erase must fail")
	}
}

func TestExpandInPlace(t *testing.T) {
	m := newMem()
	tb, _ := New(m, 256, phys.MaxOrder)
	before := tb.Slots()
	if err := tb.Expand(256, phys.MaxOrder); err != nil {
		t.Fatal(err)
	}
	if tb.Slots() <= before {
		t.Errorf("slots did not grow: %d -> %d", before, tb.Slots())
	}
	// On a fresh memory the adjacent block is free, so the table must
	// stay one contiguous run.
	if tb.Extents() != 1 {
		t.Errorf("in-place expansion produced %d runs", tb.Extents())
	}
	// Slot addressing must remain linear across the boundary.
	pa0 := tb.SlotPA(before - 1)
	pa1 := tb.SlotPA(before)
	if pa1 != pa0+SlotBytes {
		t.Errorf("slot PAs not contiguous across expansion: %#x -> %#x", pa0, pa1)
	}
}

func TestExpandChainsWhenAdjacentTaken(t *testing.T) {
	m := newMem()
	tb, _ := New(m, 256, phys.MaxOrder)
	// Occupy the adjacent block so in-place growth fails.
	blocker := tb.extents[0].base + 1
	if err := m.AllocExact(blocker, 0); err != nil {
		t.Fatalf("could not place blocker: %v", err)
	}
	if err := tb.Expand(256, phys.MaxOrder); err != nil {
		t.Fatal(err)
	}
	if tb.Extents() != 2 {
		t.Errorf("expected a chained extent, got %d runs", tb.Extents())
	}
	// Slots in the chained extent are addressable and writable.
	last := tb.Slots() - 1
	tb.Set(last, pte.Tagged{Tag: 5, Entry: pte.New(1, addr.Page4K)})
	if !tb.Get(last).Valid() {
		t.Error("chained slot not writable")
	}
	_ = tb.SlotPA(last)
}

func TestRelease(t *testing.T) {
	m := newMem()
	free := m.FreePages()
	tb, _ := New(m, 100000, phys.MaxOrder)
	tb.Expand(100000, phys.MaxOrder)
	tb.Release()
	if m.FreePages() != free {
		t.Errorf("release leaked: %d != %d", m.FreePages(), free)
	}
}

func TestQuickInsertLookupAgree(t *testing.T) {
	// Property: any sequence of inserts with in-range predictions keeps
	// every successfully inserted key findable within the same reach.
	f := func(preds []uint8) bool {
		m := phys.New(1 << 20)
		tb, err := New(m, 256, phys.MaxOrder)
		if err != nil {
			return false
		}
		inserted := map[addr.VPN]int{}
		for i, p := range preds {
			vpn := addr.VPN(10000 + i)
			pred := int(p)
			if _, _, err := tb.Insert(pred, vpn, pte.New(addr.PPN(i), addr.Page4K), 64); err == nil {
				inserted[vpn] = pred
			}
		}
		for vpn, pred := range inserted {
			// reach 64 slots = 16 clusters either side.
			if !tb.Lookup(pred, vpn, 33).Found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
