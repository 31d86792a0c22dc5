package experiments

import (
	"testing"

	"lvm/internal/addr"
	"lvm/internal/oskernel"
)

// insertCycles is oskernel's §7.3 charge for one successful LVM insert.
const insertCycles = 150

// TestGrowthBreakdown grows the quick gups heap by an eighth of its span
// past its last mapped page under LVM, one 4 KB MapPage at a time, the way
// a heap grows at run time. Every page it tries must go in; the index must
// absorb the growth with rebuilds in §7.3's low single digits; and the
// management cycles must cover at least the per-insert charge of every
// insert (retrains, rebuilds and edge expansions only add to it).
func TestGrowthBreakdown(t *testing.T) {
	r := NewRunner(Quick())
	w, err := r.Workload("gups")
	if err != nil {
		t.Fatal(err)
	}
	sys, p, err := launchScaled(r.physFor(w), oskernel.SchemeLVM, w.Space, false)
	if err != nil {
		t.Fatal(err)
	}
	base := p.MgmtCycles
	heap, err := heapOf(w.Space)
	if err != nil {
		t.Fatal(err)
	}
	grow := heap.Span / 8
	start := heap.Mapped[len(heap.Mapped)-1] + 1
	inserted := 0
	for i := 0; i < grow; i++ {
		v := start + addr.VPN(i)
		if _, ok := sys.SoftwareLookup(1, v); ok {
			continue
		}
		if err := sys.MapPage(1, v, addr.Page4K); err != nil {
			t.Fatalf("growth page %d of %d (%#x): %v", i, grow, uint64(v), err)
		}
		inserted++
	}
	if inserted == 0 {
		t.Fatal("nothing to grow into")
	}
	ix := p.LVMIndex()
	st := ix.Stats()
	t.Logf("inserted=%d mgmt=%d retrains=%d rebuilds=%d lazy=%d leaves=%d mapped=%d",
		inserted, p.MgmtCycles-base, st.Retrains, st.Rebuilds, st.LazyTrains, ix.LeafCount(), ix.MappedPages())
	if st.Rebuilds > 3 {
		t.Errorf("%d rebuilds absorbing %d inserts; §7.3 expects low single digits", st.Rebuilds, inserted)
	}
	if got, want := p.MgmtCycles-base, uint64(inserted)*insertCycles; got < want {
		t.Errorf("management cycles %d for %d inserts, below the %d their insert charges alone make", got, inserted, want)
	}
}
