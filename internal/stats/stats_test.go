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

// Histogram is a fixed-bucket histogram for small integer observations such
// as "extra memory accesses per collision".
type Histogram struct {
	buckets []uint64
	total   uint64
	sum     uint64
}

// NewHistogram creates a histogram with buckets 0..max (observations above
// max land in the last bucket).
func NewHistogram(max int) *Histogram {
	return &Histogram{buckets: make([]uint64, max+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v]++
	h.total++
	h.sum += uint64(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the mean observation.
func (h *Histogram) Mean() float64 { return Ratio(h.sum, h.total) }

// Bucket returns the count in bucket v.
func (h *Histogram) Bucket(v int) uint64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return h.buckets[v]
}

// MaxObserved returns the largest non-empty bucket index.
func (h *Histogram) MaxObserved() int {
	for i := len(h.buckets) - 1; i >= 0; i-- {
		if h.buckets[i] > 0 {
			return i
		}
	}
	return 0
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(3)
	for _, v := range []int{0, 1, 1, 2, 3, 9, -1} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Bucket(1) != 2 {
		t.Errorf("bucket 1 = %d", h.Bucket(1))
	}
	if h.Bucket(3) != 2 { // 3 and clamped 9
		t.Errorf("bucket 3 = %d", h.Bucket(3))
	}
	if h.Bucket(0) != 2 { // 0 and clamped -1
		t.Errorf("bucket 0 = %d", h.Bucket(0))
	}
	if h.MaxObserved() != 3 {
		t.Errorf("max observed = %d", h.MaxObserved())
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(10)
	h.Observe(2)
	h.Observe(4)
	if h.Mean() != 3 {
		t.Errorf("mean = %v", h.Mean())
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
