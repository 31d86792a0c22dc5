package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"

	"lvm/internal/oskernel"
)

// issueMetrics are the metrics the benchmark's specification names; the
// per-scheme families are expanded below. fail_ratio and churn's
// mgmt_ops_per_s are printed outside the result line and are not listed.
var issueMetrics = []string{
	"translations_per_s", "setup_s", "session_p50_s", "session_p90_s",
	"peak_heap_mib", "sim_cycles_per_access",
	"workload.build_s", "sim.fastforward_ns",
	"tlb.lookup_ns", "tlb.fill_ns",
	"cache.access_ns.l1", "cache.access_ns.l2", "cache.access_ns.l3", "cache.access_ns.mem",
	"dram.access_ns", "metrics.window_us",
	"lvmd.dial_ms", "lvmd.admit_ms", "lvmd.session_ms.replay", "lvmd.session_ms.stream",
	"lvmd.send_ns_per_access", "lvmd.interval_gap_ms",
	"count.l2_tlb_misses_per_access", "count.walk_refs_per_walk",
	"count.cache_l1_per_access", "count.cache_l2_per_access", "count.cache_l3_per_access",
	"count.dram_per_access", "count.lwc_hit_ratio",
	"closure.predicted_ns", "closure.residual_pct", "trace.overhead_pct",
}

func issueNames() []string {
	names := append([]string(nil), issueMetrics...)
	for _, s := range oskernel.AllSchemes() {
		sc := string(s)
		names = append(names,
			"oskernel.launch_s."+sc, "sim.step_ns."+sc,
			"walker."+sc+".walk_ns", "walker."+sc+".lookup_ns", "walker."+sc+".walkbatch_ns",
			"oskernel.map_us."+sc, "oskernel.unmap_us."+sc, "oskernel.protect_us."+sc, "oskernel.fault_lookup_us."+sc)
	}
	return names
}

func catalogNames() map[string]string {
	out := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer()...) {
		out[m.Name] = m.Unit
	}
	return out
}

func TestMetricNamesAndUnitsValid(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer()...) {
		if !validName.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]{1,64}", m.Name)
		}
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s has unit %q", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestEveryNamedMetricIsEmitted(t *testing.T) {
	cat := catalogNames()
	for _, n := range issueNames() {
		if _, ok := cat[n]; !ok {
			t.Errorf("metric %s is not in the catalog", n)
		}
	}
	if len(perLayer()) != 107 {
		t.Errorf("%d per-layer metrics, want 107", len(perLayer()))
	}

	// Both reductions report every catalogued name, measured or not.
	b := &bench{l: newLedger(), log: new(nopWriter)}
	layer := b.perLayerValues(nil)
	for _, m := range perLayer() {
		if _, ok := layer[m.Name]; !ok {
			t.Errorf("per-layer reduction omits %s", m.Name)
		}
	}
	e2e := endToEndValues([]passStats{{accesses: 1, measuredS: 1, setupS: 1, regions: [][]float64{{1}}, latencies: [][]float64{{1}}, simCycles: 1, simAccesses: 1}}, 1)
	for _, m := range endToEnd {
		if _, ok := e2e[m.Name]; !ok {
			t.Errorf("end-to-end reduction omits %s", m.Name)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json's metric lists and
// workloads in step with what the program prints.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, program %s %s", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer())
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); len(got) != len(want) {
		t.Fatalf("workloads %v, program has %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workloads %v, program has %v", got, want)
			}
		}
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }
