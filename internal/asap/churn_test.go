package asap

import (
	"math/rand"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

// TestChurnOracle verifies ASAP's table stays a faithful radix table under
// map/unmap churn inside a prefetchable VMA, and that every hit collapses
// to a single parallel group (the prefetcher never changes *what* is found,
// only *when* the requests issue).
func TestChurnOracle(t *testing.T) {
	mem := phys.New(256 << 20)
	tb, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	const lo, span = 4096, 8192
	if err := tb.AddVMA(lo, lo+span-1); err != nil {
		t.Fatal(err)
	}
	w := NewWalker()
	w.Attach(1, tb)

	rng := rand.New(rand.NewSource(23))
	oracle := map[addr.VPN]pte.Entry{}
	for op := 0; op < 6000; op++ {
		v := addr.VPN(lo + rng.Intn(span))
		if _, ok := oracle[v]; ok && rng.Intn(3) == 0 {
			if !tb.Unmap(v) {
				t.Fatalf("op %d: unmap failed", op)
			}
			delete(oracle, v)
		} else {
			e := pte.New(addr.PPN(op+1), addr.Page4K)
			if err := tb.Map(v, e); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			oracle[v] = e
		}
	}
	for v := addr.VPN(lo); v < lo+span; v += 5 {
		out := w.Walk(1, v)
		want, mapped := oracle[v]
		if out.Found != mapped {
			t.Fatalf("VPN %d: found=%t oracle=%t", v, out.Found, mapped)
		}
		if mapped && out.Entry != want {
			t.Fatalf("VPN %d: entry %v want %v", v, out.Entry, want)
		}
		if mapped && out.NumGroups() != 1 {
			t.Fatalf("VPN %d: prefetchable walk has %d groups, want 1", v, out.NumGroups())
		}
	}
}

// TestPrefetchLatencyCollapses checks the core ASAP trade: within a
// prefetchable VMA the walk has strictly fewer sequential groups than plain
// radix (latency), while issuing strictly more total requests (traffic).
func TestPrefetchLatencyCollapses(t *testing.T) {
	mem := phys.New(256 << 20)
	tb, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AddVMA(1<<20, 1<<20+4095); err != nil {
		t.Fatal(err)
	}
	inVMA := addr.VPN(1<<20 + 77)
	outVMA := addr.VPN(1 << 24)
	tb.Map(inVMA, pte.New(1, addr.Page4K))
	tb.Map(outVMA, pte.New(2, addr.Page4K))
	w := NewWalker()
	w.Attach(1, tb)

	// Walk outcomes view the walker's reusable buffer, so snapshot the
	// first walk's counts before issuing the second.
	pref := w.Walk(1, inVMA)
	prefGroups, prefRefs := pref.NumGroups(), pref.Refs()
	plain := w.Walk(1, outVMA)
	if prefGroups >= plain.NumGroups() {
		t.Errorf("prefetch groups %d not fewer than radix groups %d",
			prefGroups, plain.NumGroups())
	}
	if prefRefs <= plain.Refs() {
		t.Errorf("prefetch refs %d not more than radix refs %d (cold)",
			prefRefs, plain.Refs())
	}
}

// TestAllocFailuresUnderFragmentation: ASAP needs physically contiguous
// PT/PMD arrays per VMA; on capped memory AddVMA records the failure and
// the VMA degrades to plain radix walking.
func TestAllocFailuresUnderFragmentation(t *testing.T) {
	mem := phys.New(256 << 20)
	mem.Fragment(3, phys.DatacenterFragmentation)
	mem.SetContiguityCap(4) // ≤64KB: an 8192-page VMA's flat PT can't allocate
	tb, err := New(mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AddVMA(0, 1<<20-1); err == nil {
		t.Fatal("AddVMA allocated contiguous arrays on capped memory")
	}
	if tb.allocFailures.Value() == 0 {
		t.Fatal("no alloc failures recorded on capped memory")
	}
	tb.Map(500, pte.New(9, addr.Page4K))
	w := NewWalker()
	w.Attach(1, tb)
	out := w.Walk(1, 500)
	if !out.Found {
		t.Fatal("walk failed")
	}
	if out.NumGroups() < 2 {
		t.Errorf("unprefetchable VMA should walk sequentially, got %d groups", out.NumGroups())
	}
}
