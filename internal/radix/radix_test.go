package radix

import (
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

func newTable(t *testing.T) *Table {
	t.Helper()
	tb, err := New(phys.New(64 << 20))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestMapLookup4K(t *testing.T) {
	tb := newTable(t)
	e := pte.New(0xff, addr.Page4K)
	if err := tb.Map(139, e); err != nil {
		t.Fatal(err)
	}
	got, ok := tb.Lookup(139)
	if !ok || got != e {
		t.Fatalf("lookup: ok=%t got=%v", ok, got)
	}
	if _, ok := tb.Lookup(140); ok {
		t.Error("unmapped VPN found")
	}
}

func TestMap2M(t *testing.T) {
	tb := newTable(t)
	e := pte.New(512, addr.Page2M)
	if err := tb.Map(1024, e); err != nil {
		t.Fatal(err)
	}
	for _, v := range []addr.VPN{1024, 1300, 1535} {
		if got, ok := tb.Lookup(v); !ok || got != e {
			t.Errorf("VPN %d missed inside 2M page", v)
		}
	}
	if _, ok := tb.Lookup(1536); ok {
		t.Error("VPN beyond 2M page found")
	}
	if err := tb.Map(1025, pte.New(1, addr.Page2M)); err == nil {
		t.Error("unaligned 2M map accepted")
	}
}

func TestUnmap(t *testing.T) {
	tb := newTable(t)
	tb.Map(7, pte.New(1, addr.Page4K))
	if !tb.Unmap(7) {
		t.Fatal("unmap failed")
	}
	if tb.Unmap(7) {
		t.Error("double unmap succeeded")
	}
	if _, ok := tb.Lookup(7); ok {
		t.Error("unmapped VPN still found")
	}
}

func TestTableBytesGrowWithSpread(t *testing.T) {
	tb := newTable(t)
	base := tb.TableBytes()
	// Two VPNs in distant regions force distinct intermediate tables.
	tb.Map(0, pte.New(1, addr.Page4K))
	tb.Map(addr.VPN(1)<<30, pte.New(2, addr.Page4K))
	if tb.TableBytes() <= base {
		t.Error("spread mappings must allocate more table pages")
	}
}

func TestWalkerSequentialAccesses(t *testing.T) {
	mem := phys.New(64 << 20)
	tb, _ := New(mem)
	tb.Map(139, pte.New(0xff, addr.Page4K))
	w := NewWalker(32)
	w.Attach(1, tb)

	// Cold walk: all four levels fetched sequentially.
	out := w.Walk(1, 139)
	if !out.Found {
		t.Fatal("walk failed")
	}
	if out.Refs() != 4 {
		t.Errorf("cold radix walk made %d refs, want 4", out.Refs())
	}
	for gi := 0; gi < out.NumGroups(); gi++ {
		if len(out.Group(gi)) != 1 {
			t.Error("radix requests must be sequential (groups of 1)")
		}
	}
	// Warm walk: the PDE PWC entry now covers the 2MB region; only the
	// PTE fetch remains.
	out = w.Walk(1, 140)
	if out.Found {
		t.Fatal("VPN 140 should not be mapped")
	}
	tb.Map(140, pte.New(0x100, addr.Page4K))
	out = w.Walk(1, 140)
	if !out.Found || out.Refs() != 1 {
		t.Errorf("warm radix walk made %d refs, want 1 (PWC hit)", out.Refs())
	}
}

func TestWalker2MStopsAtPMD(t *testing.T) {
	mem := phys.New(64 << 20)
	tb, _ := New(mem)
	tb.Map(1024, pte.New(512, addr.Page2M))
	w := NewWalker(32)
	w.Attach(1, tb)

	out := w.Walk(1, 1300)
	if !out.Found {
		t.Fatal("2M walk failed")
	}
	if out.Refs() != 3 {
		t.Errorf("cold 2M walk made %d refs, want 3 (stops at PMD)", out.Refs())
	}
	if out.Entry.Size() != addr.Page2M {
		t.Errorf("size = %s", out.Entry.Size())
	}
	// Warm: PDPTE hit leaves 1 ref.
	out = w.Walk(1, 1400)
	if !out.Found || out.Refs() != 1 {
		t.Errorf("warm 2M walk made %d refs, want 1", out.Refs())
	}
}

func TestWalkerASIDIsolation(t *testing.T) {
	mem := phys.New(64 << 20)
	t1, _ := New(mem)
	t2, _ := New(mem)
	t1.Map(5, pte.New(1, addr.Page4K))
	w := NewWalker(32)
	w.Attach(1, t1)
	w.Attach(2, t2)
	if out := w.Walk(2, 5); out.Found {
		t.Error("walk crossed address spaces")
	}
}

func TestWalkerUnknownASID(t *testing.T) {
	w := NewWalker(32)
	if out := w.Walk(9, 5); out.Found || out.Refs() != 0 {
		t.Error("unknown ASID must produce an empty outcome")
	}
}

func TestPWCMissRatesExposed(t *testing.T) {
	mem := phys.New(64 << 20)
	tb, _ := New(mem)
	for i := 0; i < 1024; i++ {
		tb.Map(addr.VPN(i), pte.New(addr.PPN(i+1), addr.Page4K))
	}
	w := NewWalker(32)
	w.Attach(1, tb)
	for i := 0; i < 1024; i++ {
		w.Walk(1, addr.VPN(i))
	}
	_, _, pde := w.PWCs()
	if pde.MissRate() > 0.1 {
		t.Errorf("sequential walks should hit the PDE cache: miss rate %v", pde.MissRate())
	}
}
