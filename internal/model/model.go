// Package model implements the training-side machinery of LVM's learned
// index: least-squares linear models over (key, position) pairs with
// residual error bounds, and the greedy spline-point count that the cost
// model uses to estimate how many children a node needs (paper §4.2.3).
//
// Training runs in floating point in the OS; trained parameters are
// quantized to Q44.20 fixed point (internal/fixed) before being installed
// in a node, because the hardware walker computes only in fixed point
// (paper §4.5).
package model

import (
	"lvm/internal/fixed"
)

// Linear is a trained linear model y = Slope·x + Intercept together with
// the residual bounds observed during training. MinErr/MaxErr are the
// extreme values of (actual − predicted), so the true position of a key is
// always inside [predict+MinErr, predict+MaxErr] — the bounded-search window
// used on a misprediction (paper §4.3.3).
type Linear struct {
	Slope     float64
	Intercept float64
	MinErr    float64
	MaxErr    float64
}

// Predict evaluates the model in floating point (training-side use only).
func (l Linear) Predict(x float64) float64 { return l.Slope*x + l.Intercept }

// Quantize converts the trained parameters to the fixed-point form stored
// in a 16-byte node.
func (l Linear) Quantize() (slope, intercept fixed.Q) {
	return fixed.FromFloat(l.Slope), fixed.FromFloat(l.Intercept)
}

// MaxAbsErr returns the largest absolute residual.
func (l Linear) MaxAbsErr() float64 {
	a, b := l.MinErr, l.MaxErr
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}

// FitRanks fits sorted keys to their ranks 0..n−1 by least squares, the
// CDF approximation every LVM node learns (output range scaling is applied
// by the caller). Keys must be sorted ascending (they are VPNs from a sorted
// address space). The keys are centered on keys[0] internally for numerical
// stability; the returned intercept is already re-expressed in absolute key
// coordinates. It allocates nothing.
func FitRanks(keys []uint64) Linear { return fit(keys, nil) }

// fit regresses positions onto keys; nil positions stand for the ranks
// 0..n−1 without materializing them.
func fit(keys []uint64, positions []float64) Linear {
	n := len(keys)
	if n == 0 {
		return Linear{}
	}
	if n == 1 {
		return Linear{Slope: 0, Intercept: position(positions, 0)}
	}
	base := float64(keys[0])
	var sx, sy, sxx, sxy float64
	for i, k := range keys {
		x := float64(k) - base
		y := position(positions, i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	var slope float64
	if den != 0 {
		slope = (fn*sxy - sx*sy) / den
	}
	interceptCentered := (sy - slope*sx) / fn
	l := Linear{
		Slope:     slope,
		Intercept: interceptCentered - slope*base,
	}
	// Residual bounds.
	for i, k := range keys {
		r := position(positions, i) - l.Predict(float64(k))
		if r < l.MinErr {
			l.MinErr = r
		}
		if r > l.MaxErr {
			l.MaxErr = r
		}
	}
	return l
}

// position is key i's regression target: positions[i], or the rank i when
// positions is nil.
func position(positions []float64, i int) float64 {
	if positions == nil {
		return float64(i)
	}
	return positions[i]
}

// SplinePoints counts the number of spline points needed to approximate the
// CDF of the sorted keys within maxErr positions, using the single-pass
// greedy corridor algorithm of RadixSpline. The count estimates the
// complexity of the key distribution: LVM's cost model uses it as the
// starting guess for a node's child count and evaluates ±2 around it
// (paper §4.2.3).
func SplinePoints(keys []uint64, maxErr float64) int {
	n := len(keys)
	if n == 0 {
		return 0
	}
	if n <= 2 {
		return 1
	}
	if maxErr < 0 {
		maxErr = 0
	}
	points := 1
	// Corridor state: the current spline segment starts at (x0, y0); the
	// feasible slope range [loSlope, hiSlope] keeps all intermediate keys
	// within ±maxErr of the line.
	x0, y0 := float64(keys[0]), 0.0
	loSlope, hiSlope := -1e300, 1e300
	for i := 1; i < n; i++ {
		x, y := float64(keys[i]), float64(i)
		dx := x - x0
		if dx <= 0 {
			// Duplicate key: no constraint tightening possible.
			continue
		}
		lo := (y - maxErr - y0) / dx
		hi := (y + maxErr - y0) / dx
		if lo > hiSlope || hi < loSlope {
			// The corridor collapsed: place a spline point here and
			// start a new segment anchored at the current key.
			points++
			x0, y0 = x, y
			loSlope, hiSlope = -1e300, 1e300
			continue
		}
		if lo > loSlope {
			loSlope = lo
		}
		if hi < hiSlope {
			hiSlope = hi
		}
	}
	return points
}
