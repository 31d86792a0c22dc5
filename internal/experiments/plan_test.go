package experiments

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"lvm/internal/oskernel"
	"lvm/internal/phys"
	"lvm/internal/sim"
	"lvm/internal/workload"
)

// tinyConfig is a sub-Quick configuration small enough to execute the full
// registry several times in one test.
func tinyConfig() Config {
	return Config{
		Workloads:      []string{"bfs", "gups", "mem$"},
		Params:         workload.QuickParams(),
		Sim:            sim.ScaledConfig(),
		PhysSlackBytes: 1 << 26,
	}
}

func TestNewPlanDedupes(t *testing.T) {
	cfg := tinyConfig()
	exps, err := Select()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(cfg, exps)
	if len(p.Experiments) != len(exps) {
		t.Fatalf("plan has %d experiments, want %d", len(p.Experiments), len(exps))
	}
	seen := make(map[RunKey]int)
	for _, k := range p.Runs {
		seen[k]++
		if seen[k] > 1 {
			t.Errorf("run %s appears %d times in the plan", k, seen[k])
		}
	}
	// fig9 alone needs workloads × 4 schemes × 2 policies; the dedup must
	// not lose any of them.
	if len(p.Runs) < 4*2*len(cfg.Workloads) {
		t.Errorf("plan has only %d runs", len(p.Runs))
	}
	// Planning is deterministic: same inputs, same run list.
	q := NewPlan(cfg, exps)
	if !reflect.DeepEqual(p.Runs, q.Runs) {
		t.Error("two plans over the same config differ")
	}
}

// TestExecutePlanDeterministic is the headline invariant of the scheduler:
// the full registry, executed at 1, 4, and 8 workers, must produce
// bit-for-bit identical rendered tables and identical raw result structs.
func TestExecutePlanDeterministic(t *testing.T) {
	skipSweep(t)
	cfg := tinyConfig()
	exps, err := Select()
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		rendered []string
		raw      []any
	}
	execAt := func(workers int) outcome {
		t.Helper()
		r := NewRunner(cfg)
		results, err := r.ExecutePlan(NewPlan(cfg, exps), ExecOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var o outcome
		for _, res := range results {
			o.rendered = append(o.rendered, res.Render())
			o.raw = append(o.raw, res.Raw)
		}
		return o
	}

	base := execAt(1)
	for _, workers := range []int{4, 8} {
		got := execAt(workers)
		for i := range base.rendered {
			if got.rendered[i] != base.rendered[i] {
				t.Errorf("workers=%d: experiment %s rendered output differs from -j 1:\n-j1:\n%s\n-j%d:\n%s",
					workers, exps[i].Key, base.rendered[i], workers, got.rendered[i])
			}
			if !reflect.DeepEqual(got.raw[i], base.raw[i]) {
				t.Errorf("workers=%d: experiment %s raw result differs from -j 1", workers, exps[i].Key)
			}
		}
	}
}

// TestRunErrorNamesKey asserts the error-propagation contract: a failing
// launch (physical memory far too small for the workload) surfaces as a
// wrapped error that names the RunKey and preserves the phys sentinel —
// never as a panic.
func TestRunErrorNamesKey(t *testing.T) {
	cfg := tinyConfig()
	cfg.PhysBytes = 1 << 20 // 256 pages: no workload fits
	key := RunKey{Workload: "gups", Scheme: oskernel.SchemeLVM}
	_, err := NewRunner(cfg).ExecutePlan(Plan{Runs: []RunKey{key}}, ExecOptions{Workers: 1})
	if err == nil {
		t.Fatal("launch into 1MB of memory succeeded")
	}
	if !errors.Is(err, phys.ErrNoMemory) {
		t.Errorf("error does not wrap phys.ErrNoMemory: %v", err)
	}
	if !strings.Contains(err.Error(), key.String()) {
		t.Errorf("error %q does not name the run %q", err, key)
	}
}

// Reading a run or a measurement the plan did not execute is an error
// naming it: nothing simulates outside ExecutePlan.
func TestReadOutsidePlanNamesTask(t *testing.T) {
	r := withoutBuilds(NewRunner(tinyConfig()))
	if _, err := r.Run("gups", oskernel.SchemeLVM, false); err == nil || !strings.Contains(err.Error(), "gups/lvm thp=false not in the plan") {
		t.Errorf("Run outside the plan: %v", err)
	}
	if _, err := measurementOf[FragmentationResult](r, "fragmentation"); err == nil || !strings.Contains(err.Error(), "measurement fragmentation not in the plan") {
		t.Errorf("measurement outside the plan: %v", err)
	}
	fig2 := Registry()[0]
	fig2.Measure = nil // a plan that leaves fig2's measurement out
	if _, err := r.ExecutePlan(Plan{Experiments: []Experiment{fig2}}, ExecOptions{}); err == nil || !strings.Contains(err.Error(), "measurement fig2 not in the plan") {
		t.Errorf("fig2 computed without its measurement: %v", err)
	}
}

// withoutBuilds takes r's workload cache away, so any workload build
// through r panics: for tests that check a phase builds nothing.
func withoutBuilds(r *Runner) *Runner {
	r.wls = nil
	return r
}

func TestExecutePlanPropagatesErrors(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workloads = []string{"gups"}
	cfg.PhysBytes = 1 << 20
	r := NewRunner(cfg)
	exps, err := Select("fig9")
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.ExecutePlan(NewPlan(cfg, exps), ExecOptions{Workers: 4})
	if err == nil {
		t.Fatal("plan over 1MB of memory succeeded")
	}
	if !errors.Is(err, phys.ErrNoMemory) {
		t.Errorf("error does not wrap phys.ErrNoMemory: %v", err)
	}
	if !strings.Contains(err.Error(), "gups/lvm") {
		t.Errorf("error %q does not name a failing run", err)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	plan := Plan{Runs: []RunKey{{Workload: "nope", Scheme: oskernel.SchemeLVM}}}
	_, err := NewRunner(tinyConfig()).ExecutePlan(plan, ExecOptions{Workers: 1})
	if err == nil {
		t.Fatal("unknown workload succeeded")
	}
	if !errors.Is(err, workload.ErrUnknown) {
		t.Errorf("error does not wrap workload.ErrUnknown: %v", err)
	}
}

// TestContendersPlanWithoutBuilding covers the -list path for the
// contenders experiment: planning and cost estimation must handle the new
// schemes' runs without building a single workload — costs are
// workload-keyed, so victima and revelator rows estimate exactly like radix
// ones.
func TestContendersPlanWithoutBuilding(t *testing.T) {
	cfg := tinyConfig()
	exps, err := Select("contenders")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(cfg, exps)

	want := map[RunKey]bool{}
	for _, name := range cfg.Workloads {
		for _, s := range contenderSchemes {
			want[RunKey{Workload: name, Scheme: s}] = true
		}
	}
	if len(p.Runs) != len(want) {
		t.Fatalf("plan has %d runs, want %d", len(p.Runs), len(want))
	}
	for _, k := range p.Runs {
		if !want[k] {
			t.Errorf("unexpected run %s", k)
		}
	}

	r := withoutBuilds(NewRunner(cfg))
	_, costs, err := r.EstimateCosts(p)
	if err != nil {
		t.Fatal(err)
	}
	perWL := map[string]uint64{}
	for i, k := range p.Runs {
		if costs[i] == 0 {
			t.Errorf("run %s estimated at zero cost", k)
		}
		if c, ok := perWL[k.Workload]; ok && c != costs[i] {
			t.Errorf("run %s cost %d differs from its workload's %d (costs must be scheme-independent)",
				k, costs[i], c)
		}
		perWL[k.Workload] = costs[i]
	}

}

func TestEstimateCostsMatchRunBytes(t *testing.T) {
	// -list prints the scheduler's costs only if the estimates are exactly
	// the simulated memory of the built workloads: each run's, and each
	// measurement's largest memory held at once.
	cfg := jsonSweepConfig()
	r := NewRunner(cfg)
	p := NewPlan(cfg, Registry())
	measures, costs, err := r.EstimateCosts(p)
	if err != nil {
		t.Fatal(err)
	}
	built := func(name string, params workload.Params) uint64 {
		t.Helper()
		w, err := workload.Build(name, params)
		if err != nil {
			t.Fatal(err)
		}
		return w.FootprintBytes()
	}
	var largest, tenants uint64
	for _, name := range cfg.Workloads {
		largest = max(largest, cfg.RunCostBytes(built(name, cfg.Params)))
	}
	for _, name := range tenancyNames(cfg) {
		tenants += built(name, cfg.Params)
	}
	var scaling uint64
	for _, scale := range table2Scales {
		scaling = max(scaling, cfg.RunCostBytes(built("mem$", table2ScalingParams(cfg.Params, scale))))
	}
	bound := built(translationBoundWorkload(cfg), cfg.Params)
	want := map[string]uint64{
		"fig2":          0,
		"fig3":          fig3ServerBytes,
		"table2":        scaling,
		"collisions":    0,
		"retrain":       largest,
		"fragmentation": cfg.agedPhysBytes(bound),
		"ptwl1":         cfg.RunCostBytes(bound),
		"multitenancy":  cfg.RunCostBytes(tenants),
		"tail":          cfg.RunCostBytes(built("mem$", cfg.Params)),
		"priorwork":     cfg.agedPhysBytes(bound),
	}
	for i, e := range p.Experiments {
		w, ok := want[e.Key]
		if ok != (e.Measure != nil) {
			t.Errorf("%s: measured %t, has an expected measurement cost %t", e.Key, e.Measure != nil, ok)
		}
		if measures[i] != w {
			t.Errorf("%s: estimated measurement cost %d, built cost %d", e.Key, measures[i], w)
		}
	}
	for i, k := range p.Runs {
		if want := cfg.RunCostBytes(built(k.Workload, cfg.Params)); costs[i] != want {
			t.Errorf("%s: estimated cost %d, built cost %d", k, costs[i], want)
		}
	}
	if _, _, err := r.EstimateCosts(Plan{Runs: []RunKey{{Workload: "nope", Scheme: oskernel.SchemeLVM}}}); err == nil {
		t.Error("unknown workload estimated without error")
	}
}

// Keys drives the -only flag's help text; every key it lists must be
// selectable and come back in registry order.
func TestKeysMatchRegistry(t *testing.T) {
	keys := Keys()
	if len(keys) != len(Registry()) {
		t.Fatalf("Keys() lists %d keys, registry has %d", len(keys), len(Registry()))
	}
	if keys[0] != "fig2" {
		t.Errorf("first key %q, want fig2 (print order)", keys[0])
	}
	exps, err := Select(keys...)
	if err != nil {
		t.Fatalf("Keys() lists an unselectable key: %v", err)
	}
	for i, e := range exps {
		if e.Key != keys[i] {
			t.Errorf("key %d: Select order %q != Keys order %q", i, e.Key, keys[i])
		}
	}
}

func TestSelectUnknownKey(t *testing.T) {
	_, err := Select("fig9", "nope")
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("want unknown-key error naming it, got %v", err)
	}
	exps, err := Select("TABLE2", " fig9 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 2 || exps[0].Key != "fig9" || exps[1].Key != "table2" {
		t.Errorf("selection wrong: %d entries", len(exps))
	}
}
