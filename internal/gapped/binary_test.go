package gapped

import (
	"math/rand"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

func TestPlaceFromMonotone(t *testing.T) {
	m := phys.New(16 << 20)
	tb, _ := New(m, 1024, phys.MaxOrder)
	hint := 0
	// A plateau of equal predictions must place linearly without quadratic
	// scanning and stay sorted.
	for i := 0; i < 500; i++ {
		slot, err := tb.PlaceFrom(hint, 100, addr.VPN(1000+i), pte.New(addr.PPN(i+1), addr.Page4K))
		if err != nil {
			t.Fatal(err)
		}
		if slot < 100 {
			t.Fatalf("slot %d below prediction", slot)
		}
		hint = slot + 1
	}
	if tb.Unsorted() {
		t.Error("monotone placement must stay sorted")
	}
	prev := addr.VPN(0)
	for i := 0; i < tb.Slots(); i++ {
		if s := tb.Get(i); s.Valid() {
			if s.Tag < prev {
				t.Fatal("order violated")
			}
			prev = s.Tag
		}
	}
}

func TestPlaceFromWrapFlagsUnsorted(t *testing.T) {
	m := phys.New(16 << 20)
	tb, _ := New(m, 256, phys.MaxOrder)
	hint := 0
	for i := 0; i < 200; i++ {
		s, err := tb.PlaceFrom(hint, 450, addr.VPN(1000+i), pte.New(addr.PPN(i+1), addr.Page4K))
		if err != nil {
			t.Fatal(err)
		}
		hint = s + 1
	}
	if !tb.Unsorted() {
		t.Error("wraparound placement must void sortedness")
	}
}

func TestInsertFarDisplacementFlagsUnsorted(t *testing.T) {
	m := phys.New(16 << 20)
	tb, _ := New(m, 1024, phys.MaxOrder)
	// Fill a dense block so an insert is displaced beyond one cluster.
	for i := 0; i < 32; i++ {
		tb.Set(100+i, pte.Tagged{Tag: addr.VPN(5000 + i), Entry: pte.New(addr.PPN(i+1), addr.Page4K)})
	}
	if tb.Unsorted() {
		t.Fatal("Set must not flag")
	}
	if _, _, err := tb.Insert(115, 9999, pte.New(77, addr.Page4K), 64); err != nil {
		t.Fatal(err)
	}
	if !tb.Unsorted() {
		t.Error("displacement beyond a cluster must flag unsorted")
	}
}

func TestLookupBinaryFindsAcrossTable(t *testing.T) {
	m := phys.New(64 << 20)
	tb, _ := New(m, 4096, phys.MaxOrder)
	// Sorted sparse content with in-data gaps (ga-style).
	rng := rand.New(rand.NewSource(5))
	var tags []addr.VPN
	slot := 0
	v := addr.VPN(10000)
	for slot < 3900 {
		v += addr.VPN(1 + rng.Intn(3))
		//lint:allow addrtypes identity VPN=PPN mapping keeps the test's expected entries self-describing
		tb.Set(slot, pte.Tagged{Tag: v, Entry: pte.New(addr.PPN(v), addr.Page4K)})
		tags = append(tags, v)
		slot += 1 + rng.Intn(3) // leaves gaps, sometimes whole empty clusters
	}
	for i, tag := range tags {
		// Deliberately bad predictions: binary search must still find the
		// entry in O(log) accesses.
		pred := (i * 7919) % 4096
		res := tb.LookupBinary(pred, tag)
		if !res.Found {
			t.Fatalf("binary lost tag %#x (pred %d)", uint64(tag), pred)
		}
		if res.Accesses > 40 {
			t.Fatalf("binary took %d accesses", res.Accesses)
		}
	}
	// Misses must terminate with bounded cost.
	res := tb.LookupBinary(2000, 5)
	if res.Found {
		t.Fatal("found nonexistent key")
	}
	if res.Accesses > 40 {
		t.Fatalf("miss took %d accesses", res.Accesses)
	}
}

func TestLookupBinaryHugePages(t *testing.T) {
	m := phys.New(16 << 20)
	tb, _ := New(m, 512, phys.MaxOrder)
	// Sorted huge-page entries.
	for i := 0; i < 100; i++ {
		tb.Set(i*3, pte.Tagged{Tag: addr.VPN(i * 512), Entry: pte.New(addr.PPN(i*512+1), addr.Page2M)})
	}
	// Interior VPNs found via the 2MB-base pass.
	for _, v := range []addr.VPN{100, 512*37 + 400, 512*99 + 511} {
		res := tb.LookupBinary(0, v)
		if !res.Found || res.Entry.Size() != addr.Page2M {
			t.Fatalf("interior VPN %d not resolved", v)
		}
	}
}
