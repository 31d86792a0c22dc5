package main

import (
	"math"
	"sort"

	"lvm/internal/wallclock"
)

// ledger accumulates per-layer host-time observations by metric name. A
// name is either a rate (a summed cost over a summed operation count, read
// as cost per operation) or a set of samples (read as their median).
type ledger struct {
	sums    map[string]*[2]float64
	samples map[string][]float64
	// clockNs is the calibrated cost of one timed span with nothing in it;
	// per-operation spans subtract it so cheap operations are not priced
	// at the cost of reading the clock.
	clockNs float64
}

func newLedger() *ledger {
	return &ledger{sums: map[string]*[2]float64{}, samples: map[string][]float64{}}
}

// add charges cost over n operations to name.
func (l *ledger) add(name string, cost, n float64) {
	s := l.sums[name]
	if s == nil {
		s = new([2]float64)
		l.sums[name] = s
	}
	s[0] += cost
	s[1] += n
}

// sample records one observation of name.
func (l *ledger) sample(name string, v float64) {
	l.samples[name] = append(l.samples[name], v)
}

// value reads name: cost per operation for a rate, the median for
// samples. ok is false when nothing was recorded.
func (l *ledger) value(name string) (float64, bool) {
	if s := l.sums[name]; s != nil && s[1] > 0 {
		return s[0] / s[1], true
	}
	if xs := l.samples[name]; len(xs) > 0 {
		return percentile(xs, 50), true
	}
	return 0, false
}

// opNs reads a per-operation span rate with the clock cost taken out,
// floored at zero.
func (l *ledger) opNs(name string) float64 {
	v, _ := l.value(name)
	return math.Max(v-l.clockNs, 0)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// calibrateClock measures the median cost of an empty timed span.
func calibrateClock() float64 {
	const n = 20001
	xs := make([]float64, n)
	for i := range xs {
		sw := wallclock.Start()
		xs[i] = sinceNs(sw)
	}
	return percentile(xs, 50)
}

// cellCounts are one cell's simulated event counts over its measured
// region, as Result.Metrics records them.
type cellCounts struct {
	Accesses float64
	L2Misses float64
	// Served counts the cache accesses (demand and walk) each level
	// answered; Served[3] is the accesses that went to memory.
	Served [4]float64
}

// layerCosts price one event of each kind in host nanoseconds.
type layerCosts struct {
	TLBLookup, TLBFill float64
	// WalkerMiss is the walker's cost per L2 TLB miss on the path the cell
	// takes: Lookup plus WalkBatch for the batched pipeline, Walk for the
	// scalar loop.
	WalkerMiss float64
	// Access prices a cache access by the level that served it.
	Access [4]float64
}

// predictNs is the closure model: every access probes the TLB, every L2
// TLB miss fills it and runs the walker, and every cache access costs what
// its serving level costs. The result is host ns per simulated access.
func predictNs(c cellCounts, k layerCosts) float64 {
	if c.Accesses == 0 {
		return 0
	}
	ns := c.Accesses*k.TLBLookup + c.L2Misses*(k.TLBFill+k.WalkerMiss)
	for i, n := range c.Served {
		ns += n * k.Access[i]
	}
	return ns / c.Accesses
}

// residualPct is the share of measured time the model leaves unexplained.
func residualPct(measured, predicted float64) float64 {
	if measured == 0 {
		return 0
	}
	return 100 * (measured - predicted) / measured
}
