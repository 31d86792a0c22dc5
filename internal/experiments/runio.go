package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"lvm/internal/metrics"
	"lvm/internal/sim"
)

// This file is the persistent run cache's serialization seam: a RunOutput
// round-trips losslessly through runOutputDoc, so a cache-restored runner
// computes every experiment table byte-identically to one that simulated
// locally.
//
// HostSeconds deliberately never appears in runOutputDoc — host wall-clock
// is observational and machine-dependent, and keeping it out of the
// round-tripped output is what keeps result identity independent of when
// and where a run executed. Cache entries carry it in a separate, clearly
// labeled timing field instead.

// typedMetric is one metrics.Value with its kind preserved — the flat
// metrics.Set JSON form loses the counter/gauge distinction for integral
// gauges, which would break the exact-vs-tolerant comparison split after a
// round trip.
type typedMetric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // "counter" | "gauge"
	Uint  uint64  `json:"uint,omitempty"`
	Float float64 `json:"float,omitempty"`
}

// encodeMetrics flattens a Set in sorted-name order (the serialization
// order of every consumer). Non-finite gauges are pinned to 0 exactly like
// metrics.AppendFloat pins them, so the typed and flat views of one
// document can never disagree.
func encodeMetrics(s metrics.Set) []typedMetric {
	vals := s.Sorted()
	out := make([]typedMetric, 0, len(vals))
	for _, v := range vals {
		m := typedMetric{Name: v.Name}
		if v.Kind == metrics.KindCounter {
			m.Kind = "counter"
			m.Uint = v.Uint
		} else {
			m.Kind = "gauge"
			m.Float = v.Float
			if math.IsNaN(m.Float) || math.IsInf(m.Float, 0) {
				m.Float = 0
			}
		}
		out = append(out, m)
	}
	return out
}

// decodeMetrics rebuilds a Set. Insertion order becomes sorted-name order,
// which is unobservable: every consumer reads sets via Get or Sorted.
func decodeMetrics(ms []typedMetric) (metrics.Set, error) {
	var s metrics.Set
	for _, m := range ms {
		switch m.Kind {
		case "counter":
			s.Counter(m.Name, m.Uint)
		case "gauge":
			s.Gauge(m.Name, m.Float)
		default:
			return metrics.Set{}, fmt.Errorf("metric %q has unknown kind %q", m.Name, m.Kind)
		}
	}
	return s, nil
}

// simDoc mirrors sim.Result field for field. encoding/json round-trips
// float64 exactly (shortest-round-trip formatting), so the scalar fields
// come back bit-identical.
type simDoc struct {
	Workload     string        `json:"workload"`
	Scheme       string        `json:"scheme"`
	Instructions uint64        `json:"instructions"`
	Accesses     uint64        `json:"accesses"`
	Cycles       float64       `json:"cycles"`
	TLBCycles    float64       `json:"tlb_cycles"`
	WalkCycles   float64       `json:"walk_cycles"`
	Walks        uint64        `json:"walks"`
	WalkRefs     uint64        `json:"walk_refs"`
	L1TLBMisses  uint64        `json:"l1_tlb_misses"`
	L2TLBMisses  uint64        `json:"l2_tlb_misses"`
	L2TLBMiss    float64       `json:"l2_tlb_miss"`
	L2MPKI       float64       `json:"l2_mpki"`
	L3MPKI       float64       `json:"l3_mpki"`
	L1MPKI       float64       `json:"l1_mpki"`
	DRAMAccesses uint64        `json:"dram_accesses"`
	Faults       uint64        `json:"faults"`
	Metrics      []typedMetric `json:"metrics"`
}

// runOutputDoc is the lossless wire form of a RunOutput (minus
// HostSeconds; see the file comment).
type runOutputDoc struct {
	Sim            simDoc  `json:"sim"`
	IndexBytes     int     `json:"index_bytes"`
	IndexPeakBytes int     `json:"index_peak_bytes"`
	IndexDepth     int     `json:"index_depth"`
	IndexLeaves    int     `json:"index_leaves"`
	LWCHitRate     float64 `json:"lwc_hit_rate"`
	Retrains       uint64  `json:"retrains"`
	Rebuilds       uint64  `json:"rebuilds"`
	Overflows      uint64  `json:"overflows"`
	MgmtCycles     uint64  `json:"mgmt_cycles"`
	PWCPDEMissRate float64 `json:"pwc_pde_miss_rate"`
	OverheadBytes  uint64  `json:"overhead_bytes"`
	CollisionRate  float64 `json:"collision_rate"`
	ExtraPerColl   float64 `json:"extra_per_collision"`
}

func encodeRunOutput(out *RunOutput) runOutputDoc {
	return runOutputDoc{
		Sim: simDoc{
			Workload:     out.Sim.Workload,
			Scheme:       out.Sim.Scheme,
			Instructions: out.Sim.Instructions,
			Accesses:     out.Sim.Accesses,
			Cycles:       out.Sim.Cycles,
			TLBCycles:    out.Sim.TLBCycles,
			WalkCycles:   out.Sim.WalkCycles,
			Walks:        out.Sim.Walks,
			WalkRefs:     out.Sim.WalkRefs,
			L1TLBMisses:  out.Sim.L1TLBMisses,
			L2TLBMisses:  out.Sim.L2TLBMisses,
			L2TLBMiss:    out.Sim.L2TLBMiss,
			L2MPKI:       out.Sim.L2MPKI,
			L3MPKI:       out.Sim.L3MPKI,
			L1MPKI:       out.Sim.L1MPKI,
			DRAMAccesses: out.Sim.DRAMAccesses,
			Faults:       out.Sim.Faults,
			Metrics:      encodeMetrics(out.Sim.Metrics),
		},
		IndexBytes:     out.IndexBytes,
		IndexPeakBytes: out.IndexPeakBytes,
		IndexDepth:     out.IndexDepth,
		IndexLeaves:    out.IndexLeaves,
		LWCHitRate:     out.LWCHitRate,
		Retrains:       out.Retrains,
		Rebuilds:       out.Rebuilds,
		Overflows:      out.Overflows,
		MgmtCycles:     out.MgmtCycles,
		PWCPDEMissRate: out.PWCPDEMissRate,
		OverheadBytes:  out.OverheadBytes,
		CollisionRate:  out.CollisionRate,
		ExtraPerColl:   out.ExtraPerColl,
	}
}

func decodeRunOutput(d runOutputDoc) (*RunOutput, error) {
	m, err := decodeMetrics(d.Sim.Metrics)
	if err != nil {
		return nil, err
	}
	return &RunOutput{
		Sim: sim.Result{
			Workload:     d.Sim.Workload,
			Scheme:       d.Sim.Scheme,
			Instructions: d.Sim.Instructions,
			Accesses:     d.Sim.Accesses,
			Cycles:       d.Sim.Cycles,
			TLBCycles:    d.Sim.TLBCycles,
			WalkCycles:   d.Sim.WalkCycles,
			Walks:        d.Sim.Walks,
			WalkRefs:     d.Sim.WalkRefs,
			L1TLBMisses:  d.Sim.L1TLBMisses,
			L2TLBMisses:  d.Sim.L2TLBMisses,
			L2TLBMiss:    d.Sim.L2TLBMiss,
			L2MPKI:       d.Sim.L2MPKI,
			L3MPKI:       d.Sim.L3MPKI,
			L1MPKI:       d.Sim.L1MPKI,
			DRAMAccesses: d.Sim.DRAMAccesses,
			Faults:       d.Sim.Faults,
			Metrics:      m,
		},
		IndexBytes:     d.IndexBytes,
		IndexPeakBytes: d.IndexPeakBytes,
		IndexDepth:     d.IndexDepth,
		IndexLeaves:    d.IndexLeaves,
		LWCHitRate:     d.LWCHitRate,
		Retrains:       d.Retrains,
		Rebuilds:       d.Rebuilds,
		Overflows:      d.Overflows,
		MgmtCycles:     d.MgmtCycles,
		PWCPDEMissRate: d.PWCPDEMissRate,
		OverheadBytes:  d.OverheadBytes,
		CollisionRate:  d.CollisionRate,
		ExtraPerColl:   d.ExtraPerColl,
	}, nil
}

// Fingerprint hashes the full sweep configuration together with the
// document schema version. The run cache namespaces its entries by it
// and lvmd's handshake vets it, so outputs computed under different
// configs (or schema layouts) can never be replayed or served as if they
// were interchangeable.
func (c Config) Fingerprint() (string, error) {
	b, err := json.Marshal(struct {
		SchemaVersion int    `json:"schema_version"`
		Config        Config `json:"config"`
	}{RunJSONSchemaVersion, c})
	if err != nil {
		return "", fmt.Errorf("experiments: fingerprint: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
