package main

import (
	"math"
	"slices"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 100, 10},
		{ten, 10, 1},
		{ten, 1, 1},
		{[]float64{7}, 50, 7},
		{[]float64{3, 1, 2, 4}, 50, 2},
		{[]float64{3, 1, 2, 4}, 75, 3},
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile sorted its input in place")
	}
	// With 100 samples, ten lie beyond the nearest-rank p90.
	var hundred []float64
	for i := 1; i <= 100; i++ {
		hundred = append(hundred, float64(i))
	}
	if p90 := percentile(hundred, 90); p90 != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", p90)
	}
}

func TestLedgerReads(t *testing.T) {
	l := newLedger()
	l.add("rate", 30, 2)
	l.add("rate", 10, 2)
	l.sample("med", 5)
	l.sample("med", 1)
	l.sample("med", 3)
	if v, _ := l.value("rate"); v != 10 {
		t.Errorf("rate = %v, want 10", v)
	}
	if v, _ := l.value("med"); v != 3 {
		t.Errorf("median = %v, want 3", v)
	}
	if _, ok := l.value("absent"); ok {
		t.Error("an unrecorded name reads as measured")
	}
	l.clockNs = 4
	if v := l.opNs("rate"); v != 6 {
		t.Errorf("opNs = %v, want 6", v)
	}
	l.clockNs = 40
	if v := l.opNs("rate"); v != 0 {
		t.Errorf("opNs below the clock cost = %v, want 0", v)
	}
}

// TestClosureArithmetic checks the closure model on a synthetic ledger:
// two cells, one on the batched path and one on the scalar path.
func TestClosureArithmetic(t *testing.T) {
	b := &bench{l: newLedger(), log: new(nopWriter)}
	b.l.add("tlb.lookup_ns", 10, 1)
	b.l.add("tlb.fill_ns", 20, 1)
	for i, lv := range cacheLevels {
		b.l.add("cache.access_ns."+lv, float64(i+1), 1)
	}
	b.l.add("walker.radix.lookup_ns", 30, 1)
	b.l.add("walker.radix.walkbatch_ns", 50, 1)
	b.l.add("walker.midgard.walk_ns", 100, 1)
	b.l.add("sim.step_ns.radix", 100, 1)
	b.l.add("sim.step_ns.midgard", 200, 1)
	b.closureCells = []closureCell{
		// 100 accesses, 10 misses, 100/50/20/10 served at L1/L2/L3/memory:
		// (100*10 + 10*(20+80) + 100*1 + 50*2 + 20*3 + 10*4) / 100 = 23.
		{scheme: "radix", counts: cellCounts{Accesses: 100, L2Misses: 10, Served: [4]float64{100, 50, 20, 10}}},
		// 300 accesses, 30 misses, nothing cached: (300*10 + 30*(20+100)) / 300 = 22.
		{scheme: "midgard", scalar: true, counts: cellCounts{Accesses: 300, L2Misses: 30}},
	}
	pred, resid := b.closure()
	// Access-weighted: (23*100 + 22*300) / 400 = 22.25 predicted against
	// (100*100 + 200*300) / 400 = 175 measured.
	if math.Abs(pred-22.25) > 1e-9 {
		t.Errorf("predicted %v ns, want 22.25", pred)
	}
	if want := 100 * (175 - 22.25) / 175; math.Abs(resid-want) > 1e-9 {
		t.Errorf("residual %v%%, want %v%%", resid, want)
	}
	if got := predictNs(cellCounts{}, layerCosts{TLBLookup: 1}); got != 0 {
		t.Errorf("prediction for an empty cell = %v, want 0", got)
	}
}

func TestFastestSumsEachChunksBestPass(t *testing.T) {
	passes := []passStats{
		{regions: [][]float64{{3, 1}, {5}}},
		{regions: [][]float64{{2, 4}, {6}, {7}}},
	}
	got := fastest(passes, func(p passStats) [][]float64 { return p.regions })
	if want := []float64{2 + 1, 5, 7}; !slices.Equal(got, want) {
		t.Errorf("fastest = %v, want %v", got, want)
	}
}

func TestChunksOfLaps(t *testing.T) {
	if got, want := chunksOf([]float64{1, 3, 4}, 4.5), []float64{1, 2, 1.5}; !slices.Equal(got, want) {
		t.Errorf("chunksOf = %v, want %v", got, want)
	}
	if got, want := chunksOf(nil, 2), []float64{2}; !slices.Equal(got, want) {
		t.Errorf("chunksOf(nil) = %v, want %v", got, want)
	}
}
