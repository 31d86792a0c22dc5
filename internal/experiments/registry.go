package experiments

import (
	"fmt"
	"strings"

	"lvm/internal/oskernel"
	"lvm/internal/stats"
)

// An Experiment is one declarative registry entry: the simulations it
// needs (Requires), the bespoke measurement it takes (Measure), and the
// rendering of its result from both (Compute). Keeping the phases separate
// is what lets the scheduler dedupe and parallelize every selected
// experiment's work on one pool before any table is rendered.
type Experiment struct {
	// Key is the stable identifier used by lvmbench's -only flag.
	Key string
	// Title is the banner line, including the paper's headline claim.
	Title string
	// Requires enumerates the simulations the compute phase will read.
	Requires func(cfg Config) []RunKey
	// Measure, when set, takes the experiment's bespoke measurement — a
	// study no RunKey describes, such as the fragmentation sweep. It runs
	// as one task of the execute phase, concurrently with other tasks, and
	// its result is kept and cached as JSON under the experiment's key.
	// Set it, MeasureBytes and Compute together with measured.
	Measure func(r *Runner) (any, error)
	// MeasureBytes is the most simulated physical memory Measure holds at
	// once: its charge against the execute phase's memory budget. It is
	// computed from the footprint estimator, so planning builds nothing.
	MeasureBytes func(cfg Config) (uint64, error)
	// Compute derives the experiment's result from the runs and the
	// measurement the plan executed. It only reads and renders: it must
	// not simulate, and it must be deterministic given those results.
	Compute func(r *Runner) (Result, error)
}

// measured gives e a bespoke measurement taken by measure and charged
// bytes, and a Compute that reads the measurement back under e.Key and
// renders it with render. The key is bound here once, so a measurement
// is always read under the key it was stored under.
func measured[T any](e Experiment, bytes func(Config) (uint64, error), measure func(*Runner) (T, error),
	render func(*Runner, T) (Result, error)) Experiment {
	e.Measure = func(r *Runner) (any, error) { return measure(r) }
	e.MeasureBytes = bytes
	e.Compute = func(r *Runner) (Result, error) {
		v, err := measurementOf[T](r, e.Key)
		if err != nil {
			return Result{}, err
		}
		return render(r, v)
	}
	return e
}

// Result is one experiment's rendered output plus its raw numbers.
type Result struct {
	Key, Title string
	Table      *stats.Table
	// Summary holds the headline lines printed beneath the table.
	Summary string
	// Raw is the experiment's typed result struct (Fig9Result, …).
	Raw any
}

// Render formats the result exactly as cmd/lvmbench prints it.
func (res Result) Render() string {
	var b strings.Builder
	rule := strings.Repeat("=", 64)
	fmt.Fprintf(&b, "\n%s\n%s\n%s\n", rule, res.Title, rule)
	if res.Table != nil {
		b.WriteString(res.Table.String())
	}
	if res.Summary != "" {
		b.WriteString(res.Summary)
		if !strings.HasSuffix(res.Summary, "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// cross enumerates the run matrix workloads × schemes × page policies.
func cross(workloads []string, schemes []oskernel.Scheme, thps ...bool) []RunKey {
	keys := make([]RunKey, 0, len(thps)*len(workloads)*len(schemes))
	for _, thp := range thps {
		for _, name := range workloads {
			for _, s := range schemes {
				keys = append(keys, RunKey{Workload: name, Scheme: s, THP: thp})
			}
		}
	}
	return keys
}

// tenancyNames mirrors MultiTenancy's workload selection (first four).
func tenancyNames(cfg Config) []string {
	names := cfg.Workloads
	if len(names) > 4 {
		names = names[:4]
	}
	return names
}

// Registry returns every experiment of the paper's evaluation in print
// order: the figures, Table 2, and the §7.1–§7.5 characterization studies.
func Registry() []Experiment {
	speedupSchemes := []oskernel.Scheme{
		oskernel.SchemeRadix, oskernel.SchemeECPT, oskernel.SchemeLVM, oskernel.SchemeIdeal,
	}
	mmuSchemes := []oskernel.Scheme{
		oskernel.SchemeRadix, oskernel.SchemeECPT, oskernel.SchemeLVM,
	}
	priorSchemes := []oskernel.Scheme{
		oskernel.SchemeRadix, oskernel.SchemeLVM, oskernel.SchemeECPT,
		oskernel.SchemeASAP, oskernel.SchemeMidgard, oskernel.SchemeFPT,
	}
	lvmOnly := []oskernel.Scheme{oskernel.SchemeLVM}

	return []Experiment{
		measured(Experiment{
			Key:   "fig2",
			Title: "Figure 2: virtual memory gap coverage (paper: min 78%)",
		}, noPhysBytes, (*Runner).measureFig2, (*Runner).fig2GapCoverage),
		measured(Experiment{
			Key:   "fig3",
			Title: "Figure 3: contiguous free memory on an aged server (paper: ~30% at 256KB, ~0 at 100s of MB)",
		}, fig3Bytes, (*Runner).measureFig3, (*Runner).fig3Contiguity),
		{
			Key:   "fig9",
			Title: "Figure 9: end-to-end speedups vs radix (paper: LVM avg +14% 4KB / +7% THP, within 1% of ideal)",
			Requires: func(cfg Config) []RunKey {
				return cross(cfg.Workloads, speedupSchemes, false, true)
			},
			Compute: (*Runner).fig9Speedups,
		},
		{
			Key:   "fig10",
			Title: "Figure 10: MMU overhead vs radix (paper: LVM -39% 4KB / -29% THP; walk cycles -52%/-44%)",
			Requires: func(cfg Config) []RunKey {
				return cross(cfg.Workloads, mmuSchemes, false, true)
			},
			Compute: (*Runner).fig10MMUOverhead,
		},
		{
			Key:   "fig11",
			Title: "Figure 11: page walk traffic vs radix (paper: LVM -43%/-34%; ECPT 1.7x/2.1x)",
			Requires: func(cfg Config) []RunKey {
				return cross(cfg.Workloads, speedupSchemes, false, true)
			},
			Compute: (*Runner).fig11WalkTraffic,
		},
		{
			Key:   "fig12",
			Title: "Figure 12: cache MPKI vs radix (paper: LVM within ~1%; ECPT +44% L2 / +40% L3)",
			Requires: func(cfg Config) []RunKey {
				return cross(cfg.Workloads, mmuSchemes, false)
			},
			Compute: (*Runner).fig12CacheMPKI,
		},
		measured(Experiment{
			Key:   "table2",
			Title: "Table 2: learned index size (paper: 96-192B steady state, footprint-independent)",
			Requires: func(cfg Config) []RunKey {
				return cross(cfg.Workloads, lvmOnly, false, true)
			},
		}, table2ScalingBytes, (*Runner).measureTable2Scaling, (*Runner).table2IndexSize),
		measured(Experiment{
			Key:   "collisions",
			Title: "§7.3 collision rates (paper: LVM 0.2%/0.6%; Blake2 hash 22%/19%; 2.36 extra accesses/collision)",
			Requires: func(cfg Config) []RunKey {
				return cross(cfg.Workloads, lvmOnly, false, true)
			},
		}, noPhysBytes, (*Runner).measureCollisionBaseline, (*Runner).collisionRates),
		measured(Experiment{
			Key:   "retrain",
			Title: "§7.3 retraining (paper: at most 3 events, avg 2; mgmt 1.17% avg / 1.91% peak, THP <0.01%)",
			Requires: func(cfg Config) []RunKey {
				return cross(cfg.Workloads, lvmOnly, false, true)
			},
		}, largestRunBytes, (*Runner).measureRetrainGrowth, (*Runner).retrainStats),
		{
			Key:   "memory",
			Title: "§7.3 memory consumption beyond 8B/translation (paper: LVM < ECPT)",
			Requires: func(cfg Config) []RunKey {
				return cross(cfg.Workloads, mmuSchemes, false)
			},
			Compute: (*Runner).memoryOverhead,
		},
		measured(Experiment{
			Key:   "fragmentation",
			Title: "§7.3 fragmentation robustness (paper: performance flat, LWC hit >99%)",
		}, agedBytes, (*Runner).measureFragmentation, (*Runner).fragmentationRobustness),
		{
			Key:   "walkcaches",
			Title: "§7.2 TLB/PWC/LWC rates (paper: L2 TLB miss 57-99%, PDE miss 60-99%, LWC hit >99%)",
			Requires: func(cfg Config) []RunKey {
				return cross(cfg.Workloads, []oskernel.Scheme{oskernel.SchemeRadix, oskernel.SchemeLVM}, false)
			},
			Compute: (*Runner).walkCacheMissRates,
		},
		measured(Experiment{
			Key:   "ptwl1",
			Title: "§7.2 PTW connected to L1 vs L2 (paper: +11% vs +14%; L1 MPKI +59% radix vs +38% LVM)",
		}, ptwl1Bytes, (*Runner).measurePTWL1, (*Runner).ptwl1Connection),
		measured(Experiment{
			Key:   "multitenancy",
			Title: "§7.1 multi-tenancy (paper: speedups within 0.5% of solo)",
			Requires: func(cfg Config) []RunKey {
				return cross(tenancyNames(cfg), []oskernel.Scheme{oskernel.SchemeRadix, oskernel.SchemeLVM}, false)
			},
		}, tenancyBytes, (*Runner).measureTenancyStacked, (*Runner).multiTenancy),
		measured(Experiment{
			Key:   "tail",
			Title: "§7.3 memcached tail latency under LVM management churn (paper: p99 unaffected)",
		}, tailBytes, (*Runner).measureTail, (*Runner).tailLatency),
		{
			Key:     "hardware",
			Title:   "§7.4 hardware area/power (paper: 3.0x size, 1.5x area, 1.9x power; walker 0.000637mm²)",
			Compute: (*Runner).hardwareArea,
		},
		measured(Experiment{
			Key:   "priorwork",
			Title: "§7.5 ASAP / Midgard / FPT comparison",
			Requires: func(cfg Config) []RunKey {
				return cross([]string{translationBoundWorkload(cfg)}, priorSchemes, false)
			},
		}, agedBytes, (*Runner).measureFPTFragmented, (*Runner).priorWork),
		{
			// Appended after the paper's evaluation so every pre-existing
			// experiment keeps its registry position (and therefore its row
			// order in plans and JSON output).
			Key:   "contenders",
			Title: "Speculative contenders: Victima and Revelator vs radix and LVM (verify-overlap model)",
			Requires: func(cfg Config) []RunKey {
				return cross(cfg.Workloads, contenderSchemes, false)
			},
			Compute: (*Runner).contenders,
		},
	}
}

// Keys returns every registry key in registry (print) order. cmd/lvmbench
// derives the -only help text and experiment listing from it so they can
// never drift from the registry.
func Keys() []string {
	reg := Registry()
	keys := make([]string, len(reg))
	for i, e := range reg {
		keys[i] = e.Key
	}
	return keys
}

// Select returns the registry entries matching the given keys
// (case-insensitive), in registry order; no keys selects everything.
// Unknown keys are an error listing the valid ones.
func Select(keys ...string) ([]Experiment, error) {
	reg := Registry()
	if len(keys) == 0 {
		return reg, nil
	}
	valid := make(map[string]int, len(reg))
	var names []string
	for i, e := range reg {
		valid[e.Key] = i
		names = append(names, e.Key)
	}
	picked := make([]bool, len(reg))
	for _, k := range keys {
		i, ok := valid[strings.ToLower(strings.TrimSpace(k))]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (valid: %s)", k, strings.Join(names, ", "))
		}
		picked[i] = true
	}
	var out []Experiment
	for i, e := range reg {
		if picked[i] {
			out = append(out, e)
		}
	}
	return out, nil
}
