package asap

import (
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

func TestPrefetchableVMA(t *testing.T) {
	mem := phys.New(256 << 20)
	tb, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AddVMA(1000, 1000+8191); err != nil {
		t.Fatalf("fresh memory must allow the contiguous table: %v", err)
	}
	tb.Map(1500, pte.New(0xff, addr.Page4K))
	w := NewWalker()
	w.Attach(1, tb)

	out := w.Walk(1, 1500)
	if !out.Found {
		t.Fatal("walk failed")
	}
	// All requests in one parallel group: the prefetch hides the radix
	// latency, but the traffic is radix + 2.
	if out.NumGroups() != 1 {
		t.Errorf("ASAP must issue one parallel group, got %d", out.NumGroups())
	}
	if out.Refs() < 3 {
		t.Errorf("ASAP refs = %d, want radix walk + 2 prefetches", out.Refs())
	}
}

func TestTrafficExceedsRadix(t *testing.T) {
	mem := phys.New(256 << 20)
	tb, _ := New(mem)
	tb.AddVMA(0, 16383)
	for i := 0; i < 1024; i++ {
		tb.Map(addr.VPN(i), pte.New(addr.PPN(i+1), addr.Page4K))
	}
	w := NewWalker()
	w.Attach(1, tb)
	// Warm walks: radix alone would be 1 ref (PWC hit); ASAP adds 2.
	w.Walk(1, 0)
	out := w.Walk(1, 1)
	if out.Refs() != 3 {
		t.Errorf("warm ASAP refs = %d, want 1 (radix PWC hit) + 2 prefetch", out.Refs())
	}
}

func TestUnprefetchableFallsBackToRadix(t *testing.T) {
	mem := phys.New(64 << 20)
	mem.SetContiguityCap(3) // 32 KB max: a large VMA's table cannot fit
	tb, _ := New(mem)
	if err := tb.AddVMA(0, 1<<20); err == nil {
		t.Fatal("expected prefetchability failure")
	}
	if tb.allocFailures.Value() != 1 {
		t.Errorf("alloc failures = %d", tb.allocFailures.Value())
	}
	mem.SetContiguityCap(-1)
	tb.Map(5, pte.New(1, addr.Page4K))
	w := NewWalker()
	w.Attach(1, tb)
	out := w.Walk(1, 5)
	if !out.Found {
		t.Fatal("walk failed")
	}
	// Plain radix: sequential groups.
	if out.NumGroups() != out.Refs() {
		t.Error("fallback walk must be sequential radix")
	}
}

func TestUnmap(t *testing.T) {
	mem := phys.New(64 << 20)
	tb, _ := New(mem)
	tb.Map(5, pte.New(1, addr.Page4K))
	if !tb.Unmap(5) {
		t.Error("unmap failed")
	}
	if _, ok := tb.Lookup(5); ok {
		t.Error("still mapped")
	}
}
