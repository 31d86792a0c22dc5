package ideal

import (
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

func TestMapLookupWalk(t *testing.T) {
	mem := phys.New(64 << 20)
	tb, err := New(mem, 1000)
	if err != nil {
		t.Fatal(err)
	}
	tb.Map(139, pte.New(0xff, addr.Page4K))
	w := NewWalker()
	w.Attach(1, tb)

	out := w.Walk(1, 139)
	if !out.Found || out.Entry.PPN() != 0xff {
		t.Fatal("walk failed")
	}
	if out.Refs() != 1 {
		t.Errorf("ideal walk made %d refs, must always be exactly 1", out.Refs())
	}
}

func TestHuge(t *testing.T) {
	mem := phys.New(64 << 20)
	tb, _ := New(mem, 10)
	tb.Map(1024, pte.New(512, addr.Page2M))
	w := NewWalker()
	w.Attach(1, tb)
	out := w.Walk(1, 1300)
	if !out.Found || out.Entry.Size() != addr.Page2M {
		t.Error("huge walk failed")
	}
	if out.Refs() != 1 {
		t.Errorf("refs = %d", out.Refs())
	}
}

func TestUnmap(t *testing.T) {
	mem := phys.New(64 << 20)
	tb, _ := New(mem, 10)
	tb.Map(5, pte.New(1, addr.Page4K))
	if !tb.Unmap(5) {
		t.Fatal("unmap failed")
	}
	if _, ok := tb.Lookup(5); ok {
		t.Error("unmapped found")
	}
}

// TestUnmapHonoursPageSize: a 4 KB page at a 2 MB boundary covers only
// itself, so unmapping another VPN of that 2 MB must leave it mapped.
func TestUnmapHonoursPageSize(t *testing.T) {
	mem := phys.New(64 << 20)
	tb, _ := New(mem, 10)
	tb.Map(1024, pte.New(1, addr.Page4K))
	if tb.Unmap(1024 + 5) {
		t.Error("unmap of an unmapped VPN succeeded")
	}
	if _, ok := tb.Lookup(1024); !ok {
		t.Error("unmap of another VPN removed the 4 KB page at the 2 MB boundary")
	}
}

func TestSequentialVPNsShareLines(t *testing.T) {
	mem := phys.New(64 << 20)
	tb, _ := New(mem, 1000)
	w := NewWalker()
	w.Attach(1, tb)
	for i := 0; i < 8; i++ {
		tb.Map(addr.VPN(i), pte.New(addr.PPN(i+1), addr.Page4K))
	}
	// 8 sequential VPNs × 8-byte entries = one 64-byte line.
	line := func(pa addr.PA) uint64 { return uint64(pa) / 64 }
	first := w.Walk(1, 0).Group(0)[0]
	for i := 1; i < 8; i++ {
		pa := w.Walk(1, addr.VPN(i)).Group(0)[0]
		if line(pa) != line(first) {
			t.Errorf("VPN %d entry on different line", i)
		}
	}
}

func TestHugePagesDenseSlots(t *testing.T) {
	// Consecutive huge pages must occupy consecutive slots: a strided
	// layout would alias cache sets and misrepresent the ideal baseline.
	mem := phys.New(256 << 20)
	tb, _ := New(mem, 4096)
	base := addr.AlignDown(0x9a600+511, addr.Page2M)
	for i := 0; i < 2048; i++ {
		tb.Map(base+addr.VPN(i*512), pte.New(addr.PPN(i*512+1), addr.Page2M))
	}
	w := NewWalker()
	w.Attach(1, tb)
	lines := map[uint64]bool{}
	sets := map[uint64]bool{}
	for i := 0; i < 2048; i++ {
		pa := w.Walk(1, base+addr.VPN(i*512)+addr.VPN(i%512)).Group(0)[0]
		lines[uint64(pa)/64] = true
		sets[uint64(pa)/64%64] = true
	}
	if len(lines) > 512 {
		t.Errorf("2048 huge pages spread over %d lines, want dense packing", len(lines))
	}
	if len(sets) < 32 {
		t.Errorf("walk lines land in only %d of 64 cache sets (set aliasing)", len(sets))
	}
}
