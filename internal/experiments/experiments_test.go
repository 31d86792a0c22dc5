package experiments

import (
	"testing"

	"lvm/internal/racetest"
)

// The experiments suite is exercised end-to-end at Quick scale: every
// figure driver must run and reproduce the paper's qualitative shape.

// skipSweep skips the full simulation sweeps in -short mode and under the
// race detector, whose 10–20× slowdown pushes this package past the
// per-package test timeout; the shared simulator paths stay race-covered by
// internal/sim's own suite and the cheap shape tests here.
func skipSweep(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	if racetest.Enabled {
		t.Skip("simulation sweep too slow under -race")
	}
}

// quickResults executes the experiments named by keys on a fresh Quick
// runner and returns their raw results in registry order.
func quickResults(t *testing.T, keys ...string) []any {
	t.Helper()
	res, err := NewRunner(Quick()).Execute(ExecOptions{Workers: 2}, keys...)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]any, len(res))
	for i := range res {
		raw[i] = res[i].Raw
	}
	return raw
}

func TestFig2Shape(t *testing.T) {
	res := quickResults(t, "fig2")[0].(Fig2Result)
	if res.Min < 0.78 {
		t.Errorf("minimum gap coverage %.3f < 0.78 (Fig. 2)", res.Min)
	}
	if len(res.Coverage) < 14 {
		t.Errorf("only %d profiles measured", len(res.Coverage))
	}
}

func TestFig3Shape(t *testing.T) {
	res := quickResults(t, "fig3")[0].(Fig3Result)
	small := res.Fraction[256<<10]
	big := res.Fraction[256<<20]
	if small < 0.15 {
		t.Errorf("256KB contiguity = %.3f, paper ≈ 0.30", small)
	}
	if big > 0.02 {
		t.Errorf("256MB contiguity = %.3f, paper ≈ 0", big)
	}
}

func TestFig9Through12Shape(t *testing.T) {
	skipSweep(t)
	raw := quickResults(t, "fig9", "fig10", "fig11", "fig12")
	f9, f10, f11, f12 := raw[0].(Fig9Result), raw[1].(Fig10Result), raw[2].(Fig11Result), raw[3].(Fig12Result)
	if f9.AvgLVM4K <= 1.0 {
		t.Errorf("LVM 4K geomean speedup = %.3f, must exceed 1 (Fig. 9)", f9.AvgLVM4K)
	}
	if f9.AvgIdeal4K < f9.AvgLVM4K-0.001 {
		t.Errorf("ideal (%.3f) below LVM (%.3f)", f9.AvgIdeal4K, f9.AvgLVM4K)
	}
	// LVM within a few percent of ideal (paper: 1%).
	if f9.AvgIdeal4K/f9.AvgLVM4K > 1.06 {
		t.Errorf("LVM %.3f too far from ideal %.3f", f9.AvgLVM4K, f9.AvgIdeal4K)
	}

	if f10.AvgLVM4K >= 1.0 {
		t.Errorf("LVM MMU overhead ratio = %.3f, must be < 1 (Fig. 10)", f10.AvgLVM4K)
	}
	if f10.LVMWalkReduction4K <= f10.ECPTWalkReduction4K {
		t.Errorf("LVM walk reduction (%.3f) must beat ECPT (%.3f)",
			f10.LVMWalkReduction4K, f10.ECPTWalkReduction4K)
	}

	if f11.AvgLVM4K >= 1.0 {
		t.Errorf("LVM walk traffic ratio = %.3f, must be < 1 (Fig. 11)", f11.AvgLVM4K)
	}
	if f11.AvgECPT4K <= 1.2 {
		t.Errorf("ECPT walk traffic ratio = %.3f, paper 1.7x (Fig. 11)", f11.AvgECPT4K)
	}
	if f11.LVMvsIdeal > 1.25 {
		t.Errorf("LVM traffic vs ideal = %.3f, paper within 1%%", f11.LVMvsIdeal)
	}

	if f12.AvgLVML2 > 1.10 || f12.AvgLVML3 > 1.10 {
		t.Errorf("LVM MPKI ratios %.3f/%.3f, paper within ~1%%", f12.AvgLVML2, f12.AvgLVML3)
	}
	if f12.AvgECPTL2 < f12.AvgLVML2 || f12.AvgECPTL3 < f12.AvgLVML3 {
		t.Error("ECPT must pollute caches more than LVM (Fig. 12)")
	}
}

func TestTable2Shape(t *testing.T) {
	skipSweep(t)
	res := quickResults(t, "table2")[0].(Table2Result)
	for name, size := range res.Size4K {
		if size <= 0 || size > 4096 {
			t.Errorf("%s: index size %dB out of the paper's ballpark", name, size)
		}
	}
	// The scaling claim: the index stays tiny at every footprint (a few
	// nodes of jitter from layout holes is fine; what must NOT happen is
	// growth proportional to the 4× footprint sweep).
	maxS := 0
	for _, s := range res.ScalingSizes {
		if s > maxS {
			maxS = s
		}
	}
	if maxS > 512 {
		t.Errorf("index size grew with footprint: %v", res.ScalingSizes)
	}
}

func TestCollisionShape(t *testing.T) {
	skipSweep(t)
	res := quickResults(t, "collisions")[0].(CollisionResult)
	if res.AvgLVM4K > 0.02 {
		t.Errorf("LVM 4K collision rate %.4f, paper 0.002", res.AvgLVM4K)
	}
	if res.AvgHash4K < 0.10 {
		t.Errorf("hash collision rate %.4f, paper 0.22", res.AvgHash4K)
	}
	if res.AvgHash4K < res.AvgLVM4K*5 {
		t.Error("hash table must collide drastically more than LVM")
	}
}

func TestHardwareShape(t *testing.T) {
	res := quickResults(t, "hardware")[0].(HardwareResult)
	if res.Cmp.SizeX < 2 || res.Cmp.AreaX < 1 || res.Cmp.PowerX < 1 {
		t.Errorf("hardware ratios off: %+v", res.Cmp)
	}
}

func TestPriorWorkShape(t *testing.T) {
	skipSweep(t)
	res := quickResults(t, "priorwork")[0].(PriorWorkResult)
	if res.LVM < res.ASAP-0.02 {
		t.Errorf("LVM (%.3f) must not trail ASAP (%.3f) (§7.5.1)", res.LVM, res.ASAP)
	}
	if res.LVM < res.Midgard-0.02 {
		t.Errorf("LVM (%.3f) must not trail Midgard (%.3f) (§7.5.2)", res.LVM, res.Midgard)
	}
	if res.FPTFragmented > res.FPT+0.02 {
		t.Errorf("fragmentation must not improve FPT: %.3f -> %.3f", res.FPT, res.FPTFragmented)
	}
}

// TestRunCaching reads runs back from the runner: a run the plan executed
// comes back as the same output on every read, and Execute does not run it
// again.
func TestRunCaching(t *testing.T) {
	skipSweep(t)
	r := NewRunner(jsonSweepConfig())
	sink := &countingSink{}
	r.SetSink(sink)
	for range 2 {
		if _, err := r.Execute(ExecOptions{Workers: 2}, "walkcaches"); err != nil {
			t.Fatal(err)
		}
	}
	if want := len(jsonSweepConfig().Workloads) * 2; len(sink.started) != want {
		t.Errorf("two executions started %d runs, want %d", len(sink.started), want)
	}
	a, err := r.Run("bfs", "radix", false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("bfs", "radix", false)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("runs not cached")
	}
}

func TestTailLatencyShape(t *testing.T) {
	skipSweep(t)
	res := quickResults(t, "tail")[0].(TailLatencyResult)
	if res.ChurnOps == 0 {
		t.Fatal("no churn injected")
	}
	// §7.3: management must not move the 99th percentile meaningfully.
	if res.ChurnP99 > res.StaticP99*1.10 {
		t.Errorf("p99 moved: %.0f -> %.0f cycles", res.StaticP99, res.ChurnP99)
	}
}
