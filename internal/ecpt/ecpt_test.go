package ecpt

import (
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

func newTable(t *testing.T) *Table {
	t.Helper()
	tb, err := New(phys.New(128<<20), 1024)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestMapLookup(t *testing.T) {
	tb := newTable(t)
	e := pte.New(0xff, addr.Page4K)
	if err := tb.Map(139, e); err != nil {
		t.Fatal(err)
	}
	got, ok := tb.Lookup(139)
	if !ok || got != e {
		t.Fatalf("lookup failed: %v %t", got, ok)
	}
	if _, ok := tb.Lookup(140); ok {
		t.Error("unmapped found")
	}
}

func TestHugePages(t *testing.T) {
	tb := newTable(t)
	e := pte.New(512, addr.Page2M)
	if err := tb.Map(1024, e); err != nil {
		t.Fatal(err)
	}
	for _, v := range []addr.VPN{1024, 1300, 1535} {
		if got, ok := tb.Lookup(v); !ok || got != e {
			t.Errorf("VPN %d missed in 2M cuckoo table", v)
		}
	}
}

func TestUnmap(t *testing.T) {
	tb := newTable(t)
	tb.Map(7, pte.New(1, addr.Page4K))
	if !tb.Unmap(7) {
		t.Fatal("unmap failed")
	}
	if _, ok := tb.Lookup(7); ok {
		t.Error("unmapped VPN found")
	}
}

func TestElasticResize(t *testing.T) {
	mem := phys.New(256 << 20)
	tb, err := New(mem, 64) // tiny: forces resizes
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tb.Map(addr.VPN(1000+i), pte.New(addr.PPN(i+1), addr.Page4K)); err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
	}
	if tb.Rehashes() == 0 {
		t.Error("expected elastic resizes")
	}
	// All keys survive rehashing.
	for i := 0; i < 2000; i++ {
		if _, ok := tb.Lookup(addr.VPN(1000 + i)); !ok {
			t.Fatalf("VPN %d lost across resize", 1000+i)
		}
	}
}

func TestWalkerParallelProbes(t *testing.T) {
	mem := phys.New(128 << 20)
	tb, _ := New(mem, 1024)
	tb.Map(139, pte.New(0xff, addr.Page4K))
	w := NewWalker()
	w.Attach(1, tb)

	// Cold walk: CWT fetch + 3 parallel way probes.
	out := w.Walk(1, 139)
	if !out.Found {
		t.Fatal("walk failed")
	}
	if out.Refs() != 1+Ways {
		t.Errorf("cold ECPT walk made %d refs, want %d", out.Refs(), 1+Ways)
	}
	// Warm walk (CWC hit): 3 parallel refs in one group — the
	// latency-for-traffic trade of §2.2.
	out = w.Walk(1, 139)
	if out.Refs() != Ways {
		t.Errorf("warm ECPT walk made %d refs, want %d", out.Refs(), Ways)
	}
	if out.NumGroups() != 1 || len(out.Group(0)) != Ways {
		t.Errorf("warm probes must be one parallel group: %+v", out)
	}
}

func TestWalkerMixedSizesProbesBoth(t *testing.T) {
	mem := phys.New(128 << 20)
	tb, _ := New(mem, 1024)
	// The same 2MB region contains 4K pages; a second region has a 2M page.
	tb.Map(10, pte.New(1, addr.Page4K))
	tb.Map(1024, pte.New(512, addr.Page2M))
	w := NewWalker()
	w.Attach(1, tb)
	w.Walk(1, 10) // warm the CWC
	out := w.Walk(1, 10)
	if out.Refs() != Ways {
		t.Errorf("single-size region probed %d refs, want %d", out.Refs(), Ways)
	}
	out = w.Walk(1, 1300)
	if !out.Found || out.Entry.Size() != addr.Page2M {
		t.Error("2M region walk failed")
	}
}

func TestWalkerMiss(t *testing.T) {
	mem := phys.New(128 << 20)
	tb, _ := New(mem, 1024)
	tb.Map(10, pte.New(1, addr.Page4K))
	w := NewWalker()
	w.Attach(1, tb)
	if out := w.Walk(1, 999999); out.Found {
		t.Error("unmapped VPN translated")
	}
}

func TestTableBytesOverProvisioned(t *testing.T) {
	tb := newTable(t)
	tb.Map(1, pte.New(1, addr.Page4K))
	// ECPT reserves full tables regardless of occupancy: 2 sizes × 3 ways.
	min := uint64(2 * Ways * 1024 * pte.TaggedBytes)
	if tb.TableBytes() < min {
		t.Errorf("table bytes = %d, want ≥ %d (over-provisioning)", tb.TableBytes(), min)
	}
}
