package experiments

import (
	"fmt"
	"testing"

	"lvm/internal/addr"
	"lvm/internal/oskernel"
)

func TestGrowthBreakdown(t *testing.T) {
	skipSweep(t)
	r := NewRunner(Default())
	name := "gups"
	w, err := r.Workload(name)
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
			break
		}
		inserted++
	}
	ix := p.LVMIndex()
	st := ix.Stats()
	fmt.Printf("%s: inserted=%d steady=%d insertPart=%d retrains=%d rebuilds=%d lazy=%d leaves=%d mapped=%d\n",
		name, inserted, p.MgmtCycles-base, uint64(inserted)*150,
		st.Retrains, st.Rebuilds, st.LazyTrains, ix.LeafCount(), ix.MappedPages())
}
