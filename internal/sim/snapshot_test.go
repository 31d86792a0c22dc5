package sim

import (
	"math"
	"testing"

	"lvm/internal/oskernel"
	"lvm/internal/phys"
	"lvm/internal/stats"
	"lvm/internal/workload"
)

// launchCPU builds a workload and a fresh system and returns the bound CPU
// so tests can inspect its components after running.
func launchCPU(t *testing.T, name string, scheme oskernel.Scheme) (*CPU, *workload.Workload) {
	t.Helper()
	w, err := workload.Build(name, workload.QuickParams())
	if err != nil {
		t.Fatal(err)
	}
	mem := phys.New(4 << 30)
	sys := oskernel.NewSystem(mem, scheme)
	if _, err := sys.Launch(1, w.Space, false); err != nil {
		t.Fatalf("%s/%s: %v", name, scheme, err)
	}
	return New(DefaultConfig(), sys.Walker()), w
}

// The Result refactor's contract: every derived field must match the same
// quantity computed from each component's own counters, bit for bit.
func TestResultDerivedFieldsMatchAccessors(t *testing.T) {
	for _, scheme := range []oskernel.Scheme{oskernel.SchemeRadix, oskernel.SchemeLVM} {
		cpu, w := launchCPU(t, "bfs", scheme)
		res := cpu.Run(1, w)

		var hits, misses uint64
		for _, tl := range cpu.tlbs.L2 {
			s := tl.Snapshot()
			hits += s.Uint("hits")
			misses += s.Uint("misses")
		}
		if got, want := res.L2TLBMiss, stats.Ratio(misses, hits+misses); got != want {
			t.Errorf("%s: L2TLBMiss %v != L2 TLB counters %v", scheme, got, want)
		}
		cs := cpu.caches.Snapshot()
		for level, got := range map[string]float64{"l1": res.L1MPKI, "l2": res.L2MPKI, "l3": res.L3MPKI} {
			want := stats.PerKilo(cs.Uint(level+".demand_misses")+cs.Uint(level+".walk_misses"), res.Instructions)
			if got != want {
				t.Errorf("%s: %s MPKI %v != cache counters %v", scheme, level, got, want)
			}
		}
		if got, want := res.DRAMAccesses, cpu.caches.DRAM().Snapshot().Uint("accesses"); got != want {
			t.Errorf("%s: DRAMAccesses %d != DRAM counter %d", scheme, got, want)
		}
	}
}

func TestResultSnapshotCarriesRunCounters(t *testing.T) {
	cpu, w := launchCPU(t, "bfs", oskernel.SchemeLVM)
	res := cpu.Run(1, w)
	m := res.Snapshot()

	uints := map[string]uint64{
		"run.instructions":  res.Instructions,
		"run.accesses":      res.Accesses,
		"run.faults":        res.Faults,
		"run.l1_tlb_misses": res.L1TLBMisses,
		"run.l2_tlb_misses": res.L2TLBMisses,
		"walk.walks":        res.Walks,
		"walk.refs":         res.WalkRefs,
		"dram.accesses":     res.DRAMAccesses,
	}
	for name, want := range uints {
		if got := m.Uint(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	gauges := map[string]float64{
		"run.cycles":       res.Cycles,
		"run.tlb_cycles":   res.TLBCycles,
		"run.walk_cycles":  res.WalkCycles,
		"tlb.l2.miss_rate": res.L2TLBMiss,
		"cache.l1.mpki":    res.L1MPKI,
		"cache.l2.mpki":    res.L2MPKI,
		"cache.l3.mpki":    res.L3MPKI,
	}
	for name, want := range gauges {
		if got, _ := m.Get(name); got.Float != want {
			t.Errorf("%s = %v, want %v", name, got.Float, want)
		}
	}
	// The TLB-side counters come from the hierarchy itself; each run-loop
	// L2 miss probes one or more per-size L2 TLBs, so the component count
	// bounds the loop count from above.
	if res.L2TLBMisses > 0 && m.Uint("tlb.l2.misses") < res.L2TLBMisses {
		t.Errorf("tlb.l2.misses %d < run-loop L2 misses %d", m.Uint("tlb.l2.misses"), res.L2TLBMisses)
	}
}

// RunIntervals must produce the same Result as Run (the observer must not
// perturb the simulation) and window deltas that sum to the final
// cumulative counters.
func TestRunIntervalsMatchesRunAndSums(t *testing.T) {
	cpuA, w := launchCPU(t, "gups", oskernel.SchemeRadix)
	want := cpuA.Run(1, w)

	cpuB, _ := launchCPU(t, "gups", oskernel.SchemeRadix)
	got, ivs := cpuB.RunIntervals(1, w, len(w.Accesses)/7)

	if got.Cycles != want.Cycles || got.Instructions != want.Instructions ||
		got.Walks != want.Walks || got.WalkRefs != want.WalkRefs ||
		got.L2TLBMisses != want.L2TLBMisses || got.DRAMAccesses != want.DRAMAccesses {
		t.Errorf("RunIntervals result diverged from Run:\n got %+v\nwant %+v", got, want)
	}
	if len(ivs) == 0 {
		t.Fatal("no intervals")
	}
	if first, last := ivs[0], ivs[len(ivs)-1]; first.Start != 0 || last.End != len(w.Accesses) {
		t.Errorf("intervals span [%d,%d), want [0,%d)", first.Start, last.End, len(w.Accesses))
	}
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Start != ivs[i-1].End {
			t.Errorf("interval %d starts at %d, previous ended at %d", i, ivs[i].Start, ivs[i-1].End)
		}
	}
	final := cpuB.Snapshot()
	for _, v := range final.Sorted() {
		var sum uint64
		for _, iv := range ivs {
			sum += iv.Metrics.Uint(v.Name)
		}
		if sum != v.Uint {
			t.Errorf("%s: interval deltas sum to %d, cumulative %d", v.Name, sum, v.Uint)
		}
	}
}

// RunTail with a nil hook must agree with Run, and the per-access
// latencies must account for the total cycle count.
func TestRunTailAgreesWithRun(t *testing.T) {
	cpuA, w := launchCPU(t, "bfs", oskernel.SchemeLVM)
	want := cpuA.Run(1, w)

	cpuB, _ := launchCPU(t, "bfs", oskernel.SchemeLVM)
	got, lats := cpuB.RunTail(1, w, nil)

	if got.Instructions != want.Instructions || got.Walks != want.Walks ||
		got.L2TLBMisses != want.L2TLBMisses {
		t.Errorf("RunTail result diverged from Run:\n got %+v\nwant %+v", got, want)
	}
	if len(lats) != len(w.Accesses) {
		t.Fatalf("%d latencies for %d accesses", len(lats), len(w.Accesses))
	}
	var sum float64
	for _, l := range lats {
		sum += l
	}
	if rel := math.Abs(sum-got.Cycles) / got.Cycles; rel > 0.01 {
		t.Errorf("latency sum %v vs cycles %v (rel %v)", sum, got.Cycles, rel)
	}
}
