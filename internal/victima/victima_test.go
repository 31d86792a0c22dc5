package victima

import (
	"testing"

	"lvm/internal/addr"
	"lvm/internal/phys"
	"lvm/internal/pte"
)

func newTable(t *testing.T) *Table {
	t.Helper()
	tb, err := New(phys.New(256 << 20))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestNewSizedRejectsNonPowerOfTwo(t *testing.T) {
	mem := phys.New(64 << 20)
	for _, n := range []int{0, -8, 3, 1000} {
		if _, err := NewSized(mem, n); err == nil {
			t.Errorf("NewSized(%d) accepted a non-power-of-two", n)
		}
	}
}

func TestMapLookupUnmap(t *testing.T) {
	tb := newTable(t)
	e := pte.New(0xabc, addr.Page4K)
	if err := tb.Map(7, e); err != nil {
		t.Fatal(err)
	}
	if got, ok := tb.Lookup(7); !ok || got != e {
		t.Fatalf("lookup = %v, %t", got, ok)
	}
	if !tb.Unmap(7) {
		t.Fatal("unmap failed")
	}
	if _, ok := tb.Lookup(7); ok {
		t.Error("lookup after unmap succeeded")
	}
}

// TestStoreInvalidatedOnRemap checks the OS-side coherence rule: a store
// entry filled by a walk must not survive a remap of its VPN — the next walk
// must miss the store and fetch the new translation.
func TestStoreInvalidatedOnRemap(t *testing.T) {
	tb := newTable(t)
	w := NewWalker()
	w.Attach(1, tb)
	if err := tb.Map(7, pte.New(0x100, addr.Page4K)); err != nil {
		t.Fatal(err)
	}
	// First walk misses the store and fills it.
	if out := w.Walk(1, 7); !out.Found || out.Entry.PPN() != 0x100 {
		t.Fatalf("walk 1: %+v", out)
	}
	if w.fills.Value() != 1 {
		t.Fatalf("fills = %d", w.fills.Value())
	}
	// Remap: the fill must be invalidated, not served stale.
	if err := tb.Map(7, pte.New(0x200, addr.Page4K)); err != nil {
		t.Fatal(err)
	}
	out := w.Walk(1, 7)
	if !out.Found || out.Entry.PPN() != 0x200 {
		t.Fatalf("walk after remap = %+v, want PPN 0x200", out)
	}
	if w.storeHits.Value() != 0 {
		t.Errorf("store hit on a remapped VPN (hits = %d)", w.storeHits.Value())
	}
}

// TestStoreInvalidatedOnUnmap: after unmap the walk must fault, not hit a
// stale store slot.
func TestStoreInvalidatedOnUnmap(t *testing.T) {
	tb := newTable(t)
	w := NewWalker()
	w.Attach(1, tb)
	tb.Map(9, pte.New(0x300, addr.Page4K))
	w.Walk(1, 9) // fill
	tb.Unmap(9)
	if out := w.Walk(1, 9); out.Found {
		t.Fatalf("walk after unmap found %v", out.Entry)
	}
}

// TestWalkTraceShape pins the trace of the miss-then-hit sequence: a cold
// walk is probe + 4 radix levels + the fill riding the verify region; the
// next walk of the same VPN is a single store-probe group with no verify.
func TestWalkTraceShape(t *testing.T) {
	tb := newTable(t)
	w := NewWalker()
	w.Attach(1, tb)
	tb.Map(7, pte.New(0x100, addr.Page4K))

	cold := w.Walk(1, 7)
	if v := cold.NumGroups() - cold.CriticalGroups(); cold.NumGroups() != 6 || v != 1 {
		t.Fatalf("cold walk: %d groups / %d verify, want 6 / 1", cold.NumGroups(), v)
	}
	// Probe and fill target the same store slot.
	if cold.Group(0)[0] != tb.SlotPA(7) || cold.Group(5)[0] != tb.SlotPA(7) {
		t.Errorf("probe %#x / fill %#x, want slot %#x",
			cold.Group(0)[0], cold.Group(5)[0], tb.SlotPA(7))
	}

	hot := w.Walk(1, 7)
	if hot.NumGroups() != 1 || hot.CriticalGroups() != 1 {
		t.Fatalf("hot walk: %d groups, %d critical, want 1 probe group, no verify",
			hot.NumGroups(), hot.CriticalGroups())
	}
	if hot.WalkCacheCycles != 2 {
		t.Errorf("hot walk wcc = %d, want StepCycles", hot.WalkCacheCycles)
	}
	if w.storeHits.Value() != 1 || w.storeMisses.Value() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", w.storeHits.Value(), w.storeMisses.Value())
	}
}

// TestHugePagesNotCached: 2 MB translations must skip the fill (a single tag
// cannot stand in for 512 4 KB probes), so every walk re-probes and falls
// back to radix — and never carries a verify region.
func TestHugePagesNotCached(t *testing.T) {
	tb := newTable(t)
	w := NewWalker()
	w.Attach(1, tb)
	base := addr.AlignDown(1<<12, addr.Page2M)
	if err := tb.Map(base, pte.New(0x4000, addr.Page2M)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		out := w.Walk(1, base+3)
		if !out.Found || out.Entry.Size() != addr.Page2M {
			t.Fatalf("walk %d: %+v", i, out)
		}
		if out.CriticalGroups() != out.NumGroups() {
			t.Errorf("walk %d: huge-page walk carries a verify region", i)
		}
	}
	if w.fills.Value() != 0 || w.storeHits.Value() != 0 {
		t.Errorf("fills/hits = %d/%d, want 0/0", w.fills.Value(), w.storeHits.Value())
	}
}

// TestLookupDoesNotFill: Lookup is a pure resolve, so it must leave the
// store untouched and the following timing walk must still miss it.
func TestLookupDoesNotFill(t *testing.T) {
	tb := newTable(t)
	w := NewWalker()
	w.Attach(1, tb)
	e := pte.New(0x100, addr.Page4K)
	tb.Map(7, e)
	if got, ok := w.Lookup(1, 7); !ok || got != e {
		t.Fatalf("lookup = %v, %t", got, ok)
	}
	// The timing walk must still see a store miss.
	if out := w.Walk(1, 7); out.NumGroups() != 6 {
		t.Errorf("walk after Lookup: %d groups, want cold-walk 6", out.NumGroups())
	}
	if w.storeMisses.Value() != 1 {
		t.Errorf("store misses = %d, want 1", w.storeMisses.Value())
	}
}

// TestDirectMappedConflict: two VPNs sharing a slot evict each other; the
// values returned must always come from the authoritative radix table.
func TestDirectMappedConflict(t *testing.T) {
	tb := newTable(t)
	w := NewWalker()
	w.Attach(1, tb)
	a := addr.VPN(5)
	b := a + addr.VPN(tb.mask+1) // same slot by construction
	if tb.slotIndex(a) != tb.slotIndex(b) {
		t.Fatal("test VPNs do not conflict")
	}
	ea, eb := pte.New(0x100, addr.Page4K), pte.New(0x200, addr.Page4K)
	tb.Map(a, ea)
	tb.Map(b, eb)
	w.Walk(1, a) // fills slot with a
	w.Walk(1, b) // conflict: evicts a
	out := w.Walk(1, a)
	if !out.Found || out.Entry != ea {
		t.Fatalf("walk a after conflict = %+v, want %v", out, ea)
	}
	if out.NumGroups() != 1 {
		// a's slot now holds a again only after this re-fill; the walk that
		// produced out must have been a store miss.
		t.Log("re-walk hit warm PWC; trace:", out.NumGroups(), "groups")
	}
	if w.storeHits.Value() != 0 {
		t.Errorf("store hits = %d, want 0 (every fill was evicted)", w.storeHits.Value())
	}
}

func TestTableBytesIncludesStore(t *testing.T) {
	tb := newTable(t)
	storeBytes := phys.BlockBytes(tb.order)
	if tb.TableBytes() != tb.Radix.TableBytes()+storeBytes {
		t.Errorf("TableBytes = %d, want radix %d + store %d",
			tb.TableBytes(), tb.Radix.TableBytes(), storeBytes)
	}
	if storeBytes < DefaultStoreSlots*pte.TaggedBytes {
		t.Errorf("store region %d B too small for %d slots", storeBytes, DefaultStoreSlots)
	}
}
