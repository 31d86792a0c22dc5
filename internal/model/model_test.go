package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFitPerfectLine(t *testing.T) {
	// VPNs 100..150 mapping to positions 0..50: the paper's heap example
	// y = 1·x − 100 (Fig. 4 uses −97 with a different origin).
	keys := make([]uint64, 51)
	for i := range keys {
		keys[i] = uint64(100 + i)
	}
	l := FitRanks(keys)
	if math.Abs(l.Slope-1) > 1e-9 {
		t.Errorf("slope = %v", l.Slope)
	}
	if math.Abs(l.Intercept+100) > 1e-6 {
		t.Errorf("intercept = %v", l.Intercept)
	}
	if l.MaxAbsErr() > 1e-6 {
		t.Errorf("perfect line must have zero residuals, got %v", l.MaxAbsErr())
	}
}

func TestFitStride(t *testing.T) {
	// Every other page mapped: slope 0.5.
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = uint64(1000 + 2*i)
	}
	l := FitRanks(keys)
	if math.Abs(l.Slope-0.5) > 1e-9 {
		t.Errorf("slope = %v", l.Slope)
	}
}

func TestFitLargeVPNsStable(t *testing.T) {
	// Keys near the top of the 48-bit address space must not lose
	// precision (the centering path).
	base := uint64(1)<<36 - 500
	keys := make([]uint64, 400)
	for i := range keys {
		keys[i] = base + uint64(i)
	}
	l := FitRanks(keys)
	if math.Abs(l.Slope-1) > 1e-6 {
		t.Errorf("slope = %v", l.Slope)
	}
	if l.MaxAbsErr() > 1e-3 {
		t.Errorf("residual on exact line = %v", l.MaxAbsErr())
	}
	// Prediction must hit the correct rank after rounding.
	if got := math.Round(l.Predict(float64(base + 123))); got != 123 {
		t.Errorf("predict = %v want 123", got)
	}
}

func TestFitDegenerate(t *testing.T) {
	if l := Fit(nil, nil); l.Slope != 0 || l.Intercept != 0 {
		t.Errorf("empty fit = %+v", l)
	}
	l := Fit([]uint64{42}, []float64{7})
	if l.Slope != 0 || l.Intercept != 7 {
		t.Errorf("single-point fit = %+v", l)
	}
	// All-equal keys: zero denominator path.
	l = Fit([]uint64{5, 5, 5}, []float64{0, 1, 2})
	if l.Slope != 0 {
		t.Errorf("equal-keys slope = %v", l.Slope)
	}
}

// TestFitRanksMatchesFit: fitting ranks without materializing them gives
// the bit-identical model Fit gives over explicit rank positions.
func TestFitRanksMatchesFit(t *testing.T) {
	f := func(raw []uint16, base uint32) bool {
		keys := make([]uint64, len(raw))
		ranks := make([]float64, len(raw))
		k := uint64(base)
		for i, r := range raw {
			k += uint64(r) + 1
			keys[i] = k
			ranks[i] = float64(i)
		}
		a, b := FitRanks(keys), Fit(keys, ranks)
		return math.Float64bits(a.Slope) == math.Float64bits(b.Slope) &&
			math.Float64bits(a.Intercept) == math.Float64bits(b.Intercept) &&
			math.Float64bits(a.MinErr) == math.Float64bits(b.MinErr) &&
			math.Float64bits(a.MaxErr) == math.Float64bits(b.MaxErr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Fit([]uint64{1, 2}, []float64{1})
}

func TestResidualBoundsContainTruth(t *testing.T) {
	// Property: for any key set, every true position lies within
	// [predict+MinErr, predict+MaxErr].
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint64, 0, 500)
	k := uint64(1 << 20)
	for i := 0; i < 500; i++ {
		k += uint64(1 + rng.Intn(50))
		keys = append(keys, k)
	}
	l := FitRanks(keys)
	for i, key := range keys {
		p := l.Predict(float64(key))
		if float64(i) < p+l.MinErr-1e-9 || float64(i) > p+l.MaxErr+1e-9 {
			t.Fatalf("key %d rank %d outside residual bounds [%v, %v] around %v",
				key, i, p+l.MinErr, p+l.MaxErr, p)
		}
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	l := Linear{Slope: 0.01, Intercept: -1}
	s, b := l.Quantize()
	if math.Abs(s.Float()-0.01) > 1e-5 {
		t.Errorf("quantized slope = %v", s.Float())
	}
	if math.Abs(b.Float()+1) > 1e-5 {
		t.Errorf("quantized intercept = %v", b.Float())
	}
}

func TestSplinePointsSequential(t *testing.T) {
	// A perfectly regular space needs a single spline segment.
	keys := make([]uint64, 10000)
	for i := range keys {
		keys[i] = uint64(7777 + i)
	}
	if got := SplinePoints(keys, 1); got != 1 {
		t.Errorf("sequential keys need %d spline points, want 1", got)
	}
}

func TestSplinePointsTwoSegments(t *testing.T) {
	// Two contiguous runs separated by a huge gap (heap vs stack): the
	// corridor must collapse exactly once.
	var keys []uint64
	for i := 0; i < 1000; i++ {
		keys = append(keys, uint64(1000+i))
	}
	for i := 0; i < 1000; i++ {
		keys = append(keys, uint64(1<<30+i))
	}
	got := SplinePoints(keys, 4)
	if got != 2 {
		t.Errorf("two-segment space needs %d spline points, want 2", got)
	}
}

func TestSplinePointsIrregular(t *testing.T) {
	// Random gaps: more spline points than a regular space, fewer with a
	// looser error budget.
	rng := rand.New(rand.NewSource(3))
	keys := make([]uint64, 0, 2000)
	k := uint64(0)
	for i := 0; i < 2000; i++ {
		k += uint64(1 + rng.Intn(1000))
		keys = append(keys, k)
	}
	tight := SplinePoints(keys, 2)
	loose := SplinePoints(keys, 64)
	if tight <= 2 {
		t.Errorf("irregular keys with tight bound: %d points", tight)
	}
	if loose >= tight {
		t.Errorf("loose bound must need fewer points: tight=%d loose=%d", tight, loose)
	}
}

func TestSplinePointsDegenerate(t *testing.T) {
	if SplinePoints(nil, 1) != 0 {
		t.Error("empty keys")
	}
	if SplinePoints([]uint64{1}, 1) != 1 {
		t.Error("single key")
	}
	if SplinePoints([]uint64{1, 9}, 1) != 1 {
		t.Error("two keys are always one segment")
	}
	if SplinePoints([]uint64{4, 4, 4}, 0) != 1 {
		t.Error("duplicate keys must not split segments")
	}
}

func TestQuickSplineMonotoneInError(t *testing.T) {
	// Property: a larger error budget never needs more spline points.
	f := func(raw []uint16, e1, e2 uint8) bool {
		if len(raw) < 3 {
			return true
		}
		keys := make([]uint64, len(raw))
		k := uint64(0)
		for i, r := range raw {
			k += uint64(r) + 1
			keys[i] = k
		}
		lo, hi := float64(e1), float64(e1)+float64(e2)
		return SplinePoints(keys, hi) <= SplinePoints(keys, lo)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFitResidualsBounded(t *testing.T) {
	// Property: residual bounds always contain every training point.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		keys := make([]uint64, len(raw))
		k := uint64(1000)
		for i, r := range raw {
			k += uint64(r) + 1
			keys[i] = k
		}
		l := FitRanks(keys)
		for i, key := range keys {
			r := float64(i) - l.Predict(float64(key))
			if r < l.MinErr-1e-6 || r > l.MaxErr+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFitEndpointsQuantizationExactPowers(t *testing.T) {
	// The internal-node granule snapping depends on slopes 1/(512·2^j) and
	// intercepts lo/(512·2^j) being exact in Q44.20.
	for j := uint(0); j <= 11; j++ {
		g := float64(uint64(512) << j)
		l := Linear{Slope: 1 / g, Intercept: -float64(uint64(1024)<<j) / g}
		s, b := l.Quantize()
		if s.Float() != 1/g {
			t.Fatalf("slope 1/%v not exact: %v", g, s.Float())
		}
		if b.Float() != l.Intercept {
			t.Fatalf("intercept %v not exact: %v", l.Intercept, b.Float())
		}
	}
}
