package metrics_test

import (
	"encoding/json"
	"math"
	"testing"

	"lvm/internal/metrics"
)

// gauge returns the named gauge's value (0 when absent or a counter).
func gauge(s metrics.Set, name string) float64 {
	if v, ok := s.Get(name); ok && v.Kind == metrics.KindGauge {
		return v.Float
	}
	return 0
}

func TestCounterAccumulatesOnDuplicate(t *testing.T) {
	var s metrics.Set
	s.Counter("a.hits", 3)
	s.Counter("a.hits", 4)
	if got := s.Uint("a.hits"); got != 7 {
		t.Fatalf("a.hits = %d, want 7", got)
	}
	if n := len(s.Sorted()); n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
}

func TestGaugeReplaces(t *testing.T) {
	var s metrics.Set
	s.Gauge("rate", 0.5)
	s.Gauge("rate", 0.25)
	if got := gauge(s, "rate"); got != 0.25 {
		t.Fatalf("rate = %v, want 0.25", got)
	}
}

func TestKindAccessorsAreStrict(t *testing.T) {
	var s metrics.Set
	s.Counter("c", 9)
	s.Gauge("g", 1.5)
	if s.Uint("g") != 0 || gauge(s, "c") != 0 {
		t.Fatal("cross-kind accessor must return 0")
	}
	if s.Uint("missing") != 0 || gauge(s, "missing") != 0 {
		t.Fatal("missing name must return 0")
	}
}

func TestMergePrefixes(t *testing.T) {
	var inner metrics.Set
	inner.Counter("hits", 5)
	inner.Gauge("rate", 0.1)

	var outer metrics.Set
	outer.Counter("tlb.l2.hits", 1)
	outer.Merge("tlb.l2", inner)
	outer.Merge("", inner)

	if got := outer.Uint("tlb.l2.hits"); got != 6 {
		t.Fatalf("tlb.l2.hits = %d, want 6 (merge accumulates counters)", got)
	}
	if got := gauge(outer, "tlb.l2.rate"); got != 0.1 {
		t.Fatalf("tlb.l2.rate = %v", got)
	}
	if got := outer.Uint("hits"); got != 5 {
		t.Fatalf("empty-prefix merge: hits = %d", got)
	}
}

func TestSortedOrderAndDeterministicJSON(t *testing.T) {
	var s metrics.Set
	s.Counter("z.last", 1)
	s.Gauge("a.first", 2.5)
	s.Counter("m.mid", 3)

	sorted := s.Sorted()
	want := []string{"a.first", "m.mid", "z.last"}
	for i, v := range sorted {
		if v.Name != want[i] {
			t.Fatalf("sorted[%d] = %s, want %s", i, v.Name, want[i])
		}
	}

	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != `{"a.first":2.5,"m.mid":3,"z.last":1}` {
		t.Fatalf("json = %s", b1)
	}
	// Round-trips through encoding/json as a plain object.
	var m map[string]float64
	if err := json.Unmarshal(b1, &m); err != nil {
		t.Fatal(err)
	}
	if m["z.last"] != 1 || m["a.first"] != 2.5 {
		t.Fatalf("round-trip = %v", m)
	}
}

func TestDeltaWindowsCounters(t *testing.T) {
	var prev, cur metrics.Set
	prev.Counter("hits", 10)
	prev.Counter("gone", 3)
	cur.Counter("hits", 25)
	cur.Counter("fresh", 4)
	cur.Gauge("rate", 0.9)

	d := cur.Delta(prev)
	if got := d.Uint("hits"); got != 15 {
		t.Fatalf("delta hits = %d, want 15", got)
	}
	if got := d.Uint("fresh"); got != 4 {
		t.Fatalf("delta fresh = %d, want 4", got)
	}
	if _, ok := d.Get("rate"); ok {
		t.Fatal("gauges must be dropped from deltas")
	}
	if _, ok := d.Get("gone"); ok {
		t.Fatal("counters absent from the current set must not appear")
	}
}

func TestDeltaClampsRegressions(t *testing.T) {
	var prev, cur metrics.Set
	prev.Counter("c", 10)
	cur.Counter("c", 7)
	if got := cur.Delta(prev).Uint("c"); got != 0 {
		t.Fatalf("regressed counter delta = %d, want 0 (clamped)", got)
	}
}

func TestAppendFloatPinsNonFinite(t *testing.T) {
	if got := string(metrics.AppendFloat(nil, math.NaN())); got != "0" {
		t.Fatalf("NaN -> %q", got)
	}
	if got := string(metrics.AppendFloat(nil, math.Inf(1))); got != "0" {
		t.Fatalf("+Inf -> %q", got)
	}
	if got := string(metrics.AppendFloat(nil, 0.6)); got != "0.6" {
		t.Fatalf("0.6 -> %q", got)
	}
}
