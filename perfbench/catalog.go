package main

import (
	"regexp"

	"lvm/internal/oskernel"
)

// metricSpec is one reported metric: its name and unit.
type metricSpec struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a run reports with --trace 0. Every workload
// reports every one of them; README.md gives each workload's reading.
var endToEnd = []metricSpec{
	{"translations_per_s", "1/s"},
	{"setup_s", "s"},
	{"session_p50_s", "s"},
	{"session_p90_s", "s"},
	{"peak_heap_mib", "MiB"},
	{"sim_cycles_per_access", "cycles"},
}

// osOps are the page-table operations the churn burst issues, by metric
// stem.
var osOps = []string{"map_us", "unmap_us", "protect_us", "fault_lookup_us"}

// walkerOps are the walker entry points the ledger replays, by metric stem.
var walkerOps = []string{"walk_ns", "lookup_ns", "walkbatch_ns"}

// cacheLevels name the level that served a cache access.
var cacheLevels = []string{"l1", "l2", "l3", "mem"}

// countNames are the per-access counts read from Result.Metrics.
var countNames = []string{
	"count.l2_tlb_misses_per_access",
	"count.walk_refs_per_walk",
	"count.cache_l1_per_access",
	"count.cache_l2_per_access",
	"count.cache_l3_per_access",
	"count.dram_per_access",
	"count.lwc_hit_ratio",
}

// perLayer lists the metrics a run prints with --trace 1, in print order.
func perLayer() []metricSpec {
	var out []metricSpec
	add := func(name, unit string) { out = append(out, metricSpec{name, unit}) }
	add("workload.build_s", "s")
	for _, s := range oskernel.AllSchemes() {
		add("oskernel.launch_s."+string(s), "s")
	}
	for _, s := range oskernel.AllSchemes() {
		add("sim.step_ns."+string(s), "ns")
	}
	add("sim.fastforward_ns", "ns")
	for _, s := range oskernel.AllSchemes() {
		for _, op := range walkerOps {
			add("walker."+string(s)+"."+op, "ns")
		}
	}
	add("tlb.lookup_ns", "ns")
	add("tlb.fill_ns", "ns")
	for _, lv := range cacheLevels {
		add("cache.access_ns."+lv, "ns")
	}
	add("dram.access_ns", "ns")
	add("metrics.window_us", "us")
	add("lvmd.dial_ms", "ms")
	add("lvmd.admit_ms", "ms")
	add("lvmd.session_ms.replay", "ms")
	add("lvmd.session_ms.stream", "ms")
	add("lvmd.send_ns_per_access", "ns")
	add("lvmd.interval_gap_ms", "ms")
	for _, op := range osOps {
		for _, s := range oskernel.AllSchemes() {
			add("oskernel."+op+"."+string(s), "us")
		}
	}
	for _, n := range countNames {
		add(n, "ratio")
	}
	add("closure.predicted_ns", "ns")
	add("closure.residual_pct", "%")
	add("trace.overhead_pct", "%")
	return out
}

// validName is the metric-name alphabet.
var validName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
