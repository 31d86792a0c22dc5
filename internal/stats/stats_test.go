package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("divide by zero must be 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Errorf("Ratio(3,4) = %v", Ratio(3, 4))
	}
}

func TestPerKilo(t *testing.T) {
	if got := PerKilo(44, 1000); got != 44 {
		t.Errorf("MPKI = %v", got)
	}
	if got := PerKilo(1, 0); got != 0 {
		t.Errorf("PerKilo with zero units = %v", got)
	}
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("mean = %v", Mean(xs))
	}
	if lo, hi := Percentile(xs, 0), Percentile(xs, 100); lo != 1 || hi != 4 {
		t.Errorf("min/max = %v/%v", lo, hi)
	}
	if Mean(nil) != 0 || Percentile(nil, 0) != 0 || Percentile(nil, 100) != 0 {
		t.Error("empty slices must give 0")
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean(1,4) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("GeoMean must reject non-positive values")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("workload", "speedup")
	tb.AddRow("bfs", 1.14)
	tb.AddRow("gups", 1.26)
	out := tb.String()
	if !strings.Contains(out, "workload") || !strings.Contains(out, "1.140") {
		t.Errorf("table output missing content:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 4 {
		t.Errorf("expected 4 lines:\n%s", out)
	}
}

func TestQuickGeoMeanBetweenMinMax(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = 0.5 + float64(r)/1000
		}
		g := GeoMean(xs)
		return g >= Percentile(xs, 0)-1e-9 && g <= Percentile(xs, 100)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
