package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"lvm/internal/metrics"
)

// RunJSONSchemaVersion identifies the lvmbench -json layout. Bump it when
// renaming fields or metric names — the regression gate refuses to compare
// documents of different versions rather than reporting spurious diffs,
// and the run cache namespaces its entries by it, so it never reuses stale
// ones.
//
// v2: the version that introduced the lossless run-output payload, which
// today travels in run-cache entries.
const RunJSONSchemaVersion = 2

// RunJSONOptions selects what RunsJSON emits.
type RunJSONOptions struct {
	// Timings adds host wall-clock fields (host_seconds per run). These
	// are observational and machine-dependent, so they are off by default:
	// without them the document is byte-identical at any worker count.
	Timings bool
}

// runDoc is one run in the JSON document. Field order is the serialization
// order (encoding/json emits struct fields in declaration order).
type runDoc struct {
	Workload    string      `json:"workload"`
	Scheme      string      `json:"scheme"`
	THP         bool        `json:"thp"`
	Warmup      int         `json:"warmup,omitempty"`
	Metrics     metrics.Set `json:"metrics"`
	HostSeconds float64     `json:"host_seconds,omitempty"`
}

type runsDoc struct {
	SchemaVersion int      `json:"schema_version"`
	Runs          []runDoc `json:"runs"`
}

// schemeMetrics folds a run's scheme-side statistics into the metric
// namespace under "scheme." — integer stats as counters, rates as gauges —
// so the JSON document is one uniform name space.
func schemeMetrics(out *RunOutput) metrics.Set {
	var s metrics.Set
	s.Counter("scheme.index_bytes", uint64(out.IndexBytes))
	s.Counter("scheme.index_peak_bytes", uint64(out.IndexPeakBytes))
	s.Counter("scheme.index_depth", uint64(out.IndexDepth))
	s.Counter("scheme.index_leaves", uint64(out.IndexLeaves))
	s.Counter("scheme.retrains", out.Retrains)
	s.Counter("scheme.rebuilds", out.Rebuilds)
	s.Counter("scheme.overflows", out.Overflows)
	s.Counter("scheme.mgmt_cycles", out.MgmtCycles)
	s.Counter("scheme.overhead_bytes", out.OverheadBytes)
	s.Gauge("scheme.lwc_hit_rate", out.LWCHitRate)
	s.Gauge("scheme.pwc_pde_miss_rate", out.PWCPDEMissRate)
	s.Gauge("scheme.collision_rate", out.CollisionRate)
	s.Gauge("scheme.extra_per_collision", out.ExtraPerColl)
	return s
}

// RunsJSON serializes the plan's run matrix — every simulation ExecutePlan
// produced, in plan order — as an indented JSON document. All metric maps
// are emitted in sorted key order, so the bytes are fully deterministic;
// with opt.Timings the per-run host_seconds fields (and only those) vary
// between invocations.
func (r *Runner) RunsJSON(p Plan, opt RunJSONOptions) ([]byte, error) {
	doc := runsDoc{SchemaVersion: RunJSONSchemaVersion, Runs: make([]runDoc, 0, len(p.Runs))}
	for _, k := range p.Runs {
		out, ok := r.lookupRun(k)
		if !ok {
			return nil, fmt.Errorf("experiments: RunsJSON: run %s not executed", k)
		}
		var m metrics.Set
		m.Merge("", out.Sim.Metrics)
		m.Merge("", schemeMetrics(out))
		d := runDoc{Workload: k.Workload, Scheme: string(k.Scheme), THP: k.THP, Warmup: k.Warmup, Metrics: m}
		if opt.Timings {
			d.HostSeconds = out.HostSeconds
		}
		doc.Runs = append(doc.Runs, d)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiments: RunsJSON: %w", err)
	}
	return append(b, '\n'), nil
}

// GateOptions tunes CompareRunsJSON.
type GateOptions struct {
	// GaugeRelTol is the relative tolerance for gauge (non-integer)
	// metrics. Gauges derive deterministically from counters, so the
	// default is tight — it only absorbs float-formatting differences.
	GaugeRelTol float64
	// HostFactor bounds wall-clock fields: current may be at most this
	// factor above baseline. Zero ignores wall-clock fields entirely.
	// Wall-clock is noisy by nature; the default gate uses a generous
	// factor as a runaway-regression tripwire, not a benchmark.
	HostFactor float64
	// MaxDiffs caps the mismatches listed in the error (0 means 20).
	MaxDiffs int
}

// DefaultGateOptions is what cmd/benchgate and CI use.
func DefaultGateOptions() GateOptions {
	return GateOptions{GaugeRelTol: 1e-9, HostFactor: 100, MaxDiffs: 20}
}

// parsed mirror of the document for comparison: metric values stay as
// json.Number so integer counters can be compared exactly.
type parsedRun struct {
	Workload    string                 `json:"workload"`
	Scheme      string                 `json:"scheme"`
	THP         bool                   `json:"thp"`
	Warmup      int                    `json:"warmup"`
	Metrics     map[string]json.Number `json:"metrics"`
	HostSeconds float64                `json:"host_seconds"`
}

type parsedDoc struct {
	SchemaVersion int         `json:"schema_version"`
	Runs          []parsedRun `json:"runs"`
}

func (r parsedRun) key() string {
	if r.Warmup > 0 {
		return fmt.Sprintf("%s/%s thp=%t warmup=%d", r.Workload, r.Scheme, r.THP, r.Warmup)
	}
	return fmt.Sprintf("%s/%s thp=%t", r.Workload, r.Scheme, r.THP)
}

// isIntNumber reports whether a json.Number was serialized as an integer —
// the counter/gauge discriminator in the schema (counters are emitted
// without a fraction or exponent, gauges via metrics.AppendFloat).
func isIntNumber(n json.Number) bool {
	return !strings.ContainsAny(n.String(), ".eE")
}

// CompareRunsJSON diffs a current lvmbench -json document against a
// baseline: counters must match exactly, gauges within opt.GaugeRelTol,
// wall-clock fields within opt.HostFactor, and the run matrix and metric
// name sets must be identical. A non-nil error lists every mismatch (up to
// opt.MaxDiffs).
func CompareRunsJSON(baseline, current []byte, opt GateOptions) error {
	if opt.MaxDiffs == 0 {
		opt.MaxDiffs = 20
	}
	var base, cur parsedDoc
	if err := json.Unmarshal(baseline, &base); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(current, &cur); err != nil {
		return fmt.Errorf("current: %w", err)
	}
	if base.SchemaVersion != cur.SchemaVersion {
		return fmt.Errorf("schema version mismatch: baseline v%d, current v%d — regenerate the baseline",
			base.SchemaVersion, cur.SchemaVersion)
	}

	var diffs []string
	add := func(format string, args ...any) {
		if len(diffs) <= opt.MaxDiffs {
			diffs = append(diffs, fmt.Sprintf(format, args...))
		}
	}

	if len(base.Runs) != len(cur.Runs) {
		add("run count: baseline %d, current %d", len(base.Runs), len(cur.Runs))
	}
	n := len(base.Runs)
	if len(cur.Runs) < n {
		n = len(cur.Runs)
	}
	for i := 0; i < n; i++ {
		b, c := base.Runs[i], cur.Runs[i]
		if b.key() != c.key() {
			add("run %d: baseline %s, current %s", i, b.key(), c.key())
			continue
		}
		compareRun(b, c, opt, add)
	}

	if len(diffs) == 0 {
		return nil
	}
	if len(diffs) > opt.MaxDiffs {
		diffs = append(diffs[:opt.MaxDiffs], "... (more diffs suppressed)")
	}
	return fmt.Errorf("%d difference(s):\n  %s", len(diffs), strings.Join(diffs, "\n  "))
}

func compareRun(b, c parsedRun, opt GateOptions, add func(string, ...any)) {
	names := make([]string, 0, len(b.Metrics)+len(c.Metrics))
	for name := range b.Metrics {
		names = append(names, name)
	}
	for name := range c.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	names = slices.Compact(names)
	for _, name := range names {
		bv, inBase := b.Metrics[name]
		cv, inCur := c.Metrics[name]
		switch {
		case !inBase:
			add("%s %s: not in baseline (current %s) — regenerate the baseline", b.key(), name, cv)
		case !inCur:
			add("%s %s: missing from current (baseline %s)", b.key(), name, bv)
		case isIntNumber(bv) && isIntNumber(cv):
			if bv.String() != cv.String() {
				add("%s %s: baseline %s, current %s", b.key(), name, bv, cv)
			}
		default:
			bf, errB := bv.Float64()
			cf, errC := cv.Float64()
			if errB != nil || errC != nil {
				add("%s %s: unparseable (baseline %s, current %s)", b.key(), name, bv, cv)
				continue
			}
			if !withinRel(bf, cf, opt.GaugeRelTol) {
				add("%s %s: baseline %s, current %s (rel tol %g)", b.key(), name, bv, cv, opt.GaugeRelTol)
			}
		}
	}
	if opt.HostFactor > 0 && b.HostSeconds > 0 && c.HostSeconds > 0 {
		if c.HostSeconds > b.HostSeconds*opt.HostFactor {
			add("%s host_seconds: baseline %.2fs, current %.2fs (over %gx tripwire)",
				b.key(), b.HostSeconds, c.HostSeconds, opt.HostFactor)
		}
	}
}

// withinRel reports |a-b| <= tol*max(|a|,|b|), with exact equality (and
// 0 vs 0) always passing.
func withinRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}
