package revelator

import (
	"math/rand"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/mmu"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

func newTable(t *testing.T, expected int) *Table {
	t.Helper()
	tb, err := New(phys.New(256<<20), expected)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestSizing(t *testing.T) {
	cases := []struct{ expected, slots int }{
		{0, 1024}, {100, 1024}, {614, 1024}, {615, 2048}, {5000, 16384},
	}
	for _, tc := range cases {
		tb := newTable(t, tc.expected)
		if tb.Slots() != tc.slots {
			t.Errorf("New(expected=%d): %d slots, want %d", tc.expected, tb.Slots(), tc.slots)
		}
	}
}

func TestMapLookupUnmap(t *testing.T) {
	tb := newTable(t, 64)
	e := pte.New(0xabc, addr.Page4K)
	if err := tb.Map(7, e); err != nil {
		t.Fatal(err)
	}
	if got, ok := tb.Lookup(7); !ok || got != e {
		t.Fatalf("lookup = %v, %t", got, ok)
	}
	if got, ok := tb.lookup(nil, 7); !ok || got != e {
		t.Fatalf("hash lookup = %v, %t (mirror diverged)", got, ok)
	}
	if !tb.Unmap(7) {
		t.Fatal("unmap failed")
	}
	if _, ok := tb.Lookup(7); ok {
		t.Error("radix lookup after unmap succeeded")
	}
	if _, ok := tb.lookup(nil, 7); ok {
		t.Error("hash lookup after unmap succeeded")
	}
	if tb.LiveEntries() != 0 {
		t.Errorf("live = %d, want 0", tb.LiveEntries())
	}
}

// TestChurnOracle interleaves maps and unmaps and checks the hash mirror
// against the authoritative radix table at every VPN — tombstone reuse and
// chain displacement must never strand or resurrect an entry.
func TestChurnOracle(t *testing.T) {
	tb := newTable(t, 256)
	rng := rand.New(rand.NewSource(23))
	mapped := map[addr.VPN]pte.Entry{}
	for op := 0; op < 5000; op++ {
		v := addr.VPN(rng.Intn(1 << 10))
		if _, ok := mapped[v]; ok && rng.Intn(3) == 0 {
			if !tb.Unmap(v) {
				t.Fatalf("op %d: unmap of mapped %d failed", op, v)
			}
			delete(mapped, v)
		} else {
			e := pte.New(addr.PPN(op+1), addr.Page4K)
			if err := tb.Map(v, e); err != nil {
				t.Fatalf("op %d: map %d: %v", op, v, err)
			}
			mapped[v] = e
		}
	}
	if tb.LiveEntries() != len(mapped) {
		t.Fatalf("live = %d, oracle %d", tb.LiveEntries(), len(mapped))
	}
	for v := addr.VPN(0); v < 1<<10; v++ {
		got, ok := tb.lookup(nil, v)
		want, isMapped := mapped[v]
		if ok != isMapped || (isMapped && got != want) {
			t.Fatalf("VPN %d: hash %v/%t, oracle %v/%t", v, got, ok, want, isMapped)
		}
		rGot, rOK := tb.Lookup(v)
		if rOK != ok || (ok && rGot != got) {
			t.Fatalf("VPN %d: hash and radix diverge (%v/%t vs %v/%t)", v, got, ok, rGot, rOK)
		}
	}
}

// TestTombstoneReuse: unmap then map along the same chain must reuse the
// tombstone rather than extend the chain.
func TestTombstoneReuse(t *testing.T) {
	tb := newTable(t, 64)
	tb.Map(7, pte.New(1, addr.Page4K))
	tb.Unmap(7)
	if err := tb.Map(7, pte.New(2, addr.Page4K)); err != nil {
		t.Fatal(err)
	}
	i := tb.home(7)
	if tb.state[i] != slotLive || tb.slots[i].Entry.PPN() != 2 {
		t.Errorf("home slot state=%d entry=%v, want live remap", tb.state[i], tb.slots[i].Entry)
	}
}

// TestHashFullRollback fills every slot and checks the overflowing Map fails
// atomically: the radix insert must be rolled back so the structures agree.
func TestHashFullRollback(t *testing.T) {
	tb := newTable(t, 64) // 1024 slots
	n := tb.Slots()
	for i := 0; i < n; i++ {
		if err := tb.Map(addr.VPN(i), pte.New(addr.PPN(i+1), addr.Page4K)); err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
	}
	over := addr.VPN(n)
	if err := tb.Map(over, pte.New(0x9999, addr.Page4K)); err == nil {
		t.Fatal("map into a full table succeeded")
	}
	if _, ok := tb.Lookup(over); ok {
		t.Error("radix kept the entry the hash rejected")
	}
	if tb.LiveEntries() != n {
		t.Errorf("live = %d, want %d", tb.LiveEntries(), n)
	}
}

func TestHugePageProbe(t *testing.T) {
	tb := newTable(t, 64)
	base := addr.AlignDown(1<<13, addr.Page2M)
	if err := tb.Map(base, pte.New(0x4000, addr.Page2M)); err != nil {
		t.Fatal(err)
	}
	// Any VPN inside the region resolves through the aligned tag.
	if e, ok := tb.lookup(nil, base+77); !ok || e.Size() != addr.Page2M {
		t.Fatalf("huge lookup = %v, %t", e, ok)
	}
	if !tb.Unmap(base) {
		t.Fatal("huge unmap failed")
	}
	if _, ok := tb.lookup(nil, base+77); ok {
		t.Error("huge entry survived unmap")
	}
}

// TestWalkTraceShape pins the speculative walk's structure: the hash probe
// chain is the critical prefix, the radix verify walk is the suffix, and a
// miss (unmapped page) issues no verify walk at all.
func TestWalkTraceShape(t *testing.T) {
	tb := newTable(t, 64)
	w := NewWalker()
	w.Attach(1, tb)
	tb.Map(7, pte.New(0x100, addr.Page4K))

	out := w.Walk(1, 7)
	if !out.Found || out.Entry.PPN() != 0x100 {
		t.Fatalf("walk = %+v", out)
	}
	if v := out.NumGroups() - out.CriticalGroups(); v != 4 {
		t.Fatalf("verify groups = %d, want the 4-level radix walk", v)
	}
	if out.CriticalGroups() < 1 {
		t.Fatalf("critical groups = %d, want the probe chain", out.CriticalGroups())
	}
	// wcc = hash step + the verify walk's PWC probes (cold: one per level
	// above the leaf... pinned only as strictly more than the bare step).
	if out.WalkCacheCycles <= mmu.StepCycles {
		t.Errorf("wcc = %d, want > StepCycles (verify PWC charge missing)", out.WalkCacheCycles)
	}
	if w.specResolved.Value() != 1 {
		t.Errorf("specResolved = %d", w.specResolved.Value())
	}

	miss := w.Walk(1, 9)
	if miss.Found || miss.CriticalGroups() != miss.NumGroups() {
		t.Fatalf("unmapped walk = %+v, want miss with no verify region", miss)
	}
	if miss.NumGroups() < 1 {
		t.Error("unmapped walk issued no probes")
	}
	if miss.WalkCacheCycles != mmu.StepCycles {
		t.Errorf("miss wcc = %d, want bare StepCycles", miss.WalkCacheCycles)
	}
	if w.specMisses.Value() != 1 {
		t.Errorf("specMisses = %d", w.specMisses.Value())
	}
}

func TestTableBytesIncludesHashRegion(t *testing.T) {
	tb := newTable(t, 64)
	if tb.TableBytes() != tb.Radix.TableBytes()+phys.BlockBytes(tb.order) {
		t.Errorf("TableBytes = %d, want radix %d + hash %d",
			tb.TableBytes(), tb.Radix.TableBytes(), phys.BlockBytes(tb.order))
	}
}
