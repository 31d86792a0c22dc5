// Package metrics is the uniform instrumentation contract of the
// simulator: every stat-bearing component — TLB hierarchy, cache
// hierarchy, DRAM model, the walk caches, and the scheme walkers
// themselves — exposes its counters as a Set of stable, dot-namespaced
// names (`tlb.l2.misses`, `cache.l3.walk_misses`, `dram.accesses`, ...).
// The experiment harness serializes these sets into lvmbench's JSON run
// output, and the CI regression gate exact-matches the counters against a
// committed baseline; per-structure statistics are the primary interface
// of a translation simulator (Fast TLB Simulation, arXiv:1905.06825), so
// they are typed and ordered here rather than scattered across ad-hoc
// accessors.
//
// Determinism is part of the contract: a Set is backed by an ordered
// slice, never a map, so serialization order can not depend on map
// iteration (the lvmlint nondeterm analyzer bans map ranges in this
// package to keep it that way by construction).
package metrics

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates the two metric value types.
type Kind uint8

const (
	// KindCounter is a monotonically increasing uint64 event count. All
	// counters are bit-for-bit deterministic run to run; the regression
	// gate compares them exactly.
	KindCounter Kind = iota
	// KindGauge is a float64 level or derived rate (miss rates, MPKI).
	// Gauges are derived from counters and equally deterministic, but the
	// gate compares them with a tiny relative tolerance to stay robust to
	// float formatting differences.
	KindGauge
)

// Value is one named metric.
type Value struct {
	Name string
	Kind Kind
	// Uint holds the value of a KindCounter, Float of a KindGauge.
	Uint  uint64
	Float float64
}

// A Set is an ordered collection of named metrics. The zero value is an
// empty set ready for use. Sets are built by the components' Snapshot
// methods and merged under namespace prefixes by their containers.
type Set struct {
	vals []Value
}

// A Source is a component that can snapshot its statistics. Snapshots are
// cumulative (counters since construction), so callers can window them
// with Delta.
type Source interface {
	Snapshot() Set
}

// find returns the index of name, or -1.
func (s *Set) find(name string) int {
	for i := range s.vals {
		if s.vals[i].Name == name {
			return i
		}
	}
	return -1
}

// Counter records a counter value. Recording an existing counter name
// accumulates into it (addition is commutative, so merge order can not
// leak into the result); recording over a gauge replaces it.
func (s *Set) Counter(name string, v uint64) {
	if i := s.find(name); i >= 0 {
		if s.vals[i].Kind == KindCounter {
			s.vals[i].Uint += v
			return
		}
		s.vals[i] = Value{Name: name, Kind: KindCounter, Uint: v}
		return
	}
	s.vals = append(s.vals, Value{Name: name, Kind: KindCounter, Uint: v})
}

// Gauge records a gauge value, replacing any existing metric of the name.
func (s *Set) Gauge(name string, v float64) {
	if i := s.find(name); i >= 0 {
		s.vals[i] = Value{Name: name, Kind: KindGauge, Float: v}
		return
	}
	s.vals = append(s.vals, Value{Name: name, Kind: KindGauge, Float: v})
}

// Merge folds every metric of o into s under "prefix." (or verbatim when
// prefix is empty), with Counter/Gauge recording semantics.
func (s *Set) Merge(prefix string, o Set) {
	for _, v := range o.vals {
		name := v.Name
		if prefix != "" {
			name = prefix + "." + name
		}
		if v.Kind == KindCounter {
			s.Counter(name, v.Uint)
		} else {
			s.Gauge(name, v.Float)
		}
	}
}

// Get returns the metric of the given name.
func (s Set) Get(name string) (Value, bool) {
	if i := s.find(name); i >= 0 {
		return s.vals[i], true
	}
	return Value{}, false
}

// Uint returns the named counter's value (0 when absent or a gauge).
func (s Set) Uint(name string) uint64 {
	if v, ok := s.Get(name); ok && v.Kind == KindCounter {
		return v.Uint
	}
	return 0
}

// Sorted returns the metrics as a fresh slice sorted by name — the
// serialization order of every consumer.
func (s Set) Sorted() []Value {
	out := append([]Value(nil), s.vals...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Delta returns the counter increments of s over prev: for every counter
// in s, its value minus prev's (clamped at 0; a counter absent from prev
// contributes its full value). Gauges are levels, not accumulations, so
// they are dropped — recompute them over the window if needed.
func (s Set) Delta(prev Set) Set {
	var out Set
	for _, v := range s.vals {
		if v.Kind != KindCounter {
			continue
		}
		d := v.Uint
		if p, ok := prev.Get(v.Name); ok && p.Kind == KindCounter {
			if p.Uint >= d {
				d = 0
			} else {
				d -= p.Uint
			}
		}
		out.Counter(v.Name, d)
	}
	return out
}

// AppendFloat formats a gauge value in the canonical JSON form shared by
// every serializer of a Set: shortest round-trip representation, with
// non-finite values (which no derivation should produce) pinned to 0.
func AppendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, '0')
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// MarshalJSON renders the set as a JSON object with keys in sorted order,
// counters as integers and gauges as numbers. The implementation iterates
// the sorted slice — never a map — so the byte output is deterministic.
func (s Set) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i, v := range s.Sorted() {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, v.Name)
		b = append(b, ':')
		if v.Kind == KindCounter {
			b = strconv.AppendUint(b, v.Uint, 10)
		} else {
			b = AppendFloat(b, v.Float)
		}
	}
	return append(b, '}'), nil
}

// String renders the set one "name value" pair per line in sorted order,
// for debugging and test failure output.
func (s Set) String() string {
	var b strings.Builder
	for _, v := range s.Sorted() {
		b.WriteString(v.Name)
		b.WriteByte(' ')
		if v.Kind == KindCounter {
			b.WriteString(strconv.FormatUint(v.Uint, 10))
		} else {
			b.WriteString(strconv.FormatFloat(v.Float, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
