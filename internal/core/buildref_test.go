package core

import (
	"bytes"
	"math"
	"testing"

	"lvm/internal/fixed"
	"lvm/internal/model"
	"lvm/internal/phys"
)

// The fanout search as it was before the cost model's x3-independent inputs
// were computed once per node: every attempt re-partitioned the mappings,
// re-fit every part twice and allocated per trial. FuzzChooseFanout holds
// the restructured search to these functions' choices and costs.

// residualOf returns the scaled worst-case model residual, in slots, of a
// single linear model over the mappings.
func (b *builder) residualOf(ms []Mapping) int {
	keys := make([]uint64, len(ms))
	for i, m := range ms {
		keys[i] = uint64(m.VPN)
	}
	l := model.FitRanks(keys)
	return int(l.MaxAbsErr() * b.p.GAScale)
}

func splineEstimate(ms []Mapping, errBudget float64) int {
	keys := make([]uint64, len(ms))
	for i, m := range ms {
		keys[i] = uint64(m.VPN)
	}
	return model.SplinePoints(keys, errBudget)
}

// refChooseFanout evaluates the cost model C(n) = x1·d + x2·s + x3·cr·ma
// over candidate child counts around the spline-point estimate (±2,
// §4.2.3) and returns the winner; a result of 1 means "stay a leaf".
func (b *builder) refChooseFanout(ms []Mapping, lo, hi uint64, depth int, x3 float64, minN int) int {
	sp := splineEstimate(ms, b.errBudgetRanks())

	// Constraint: children must each cover enough address space per byte
	// of index (the cacheability floor of §4.2.3).
	maxByCoverage := b.maxFanoutForCoverage(lo, hi, depth)

	// Constraint: if the leaf table would exceed the available physical
	// contiguity, enough siblings must be created for each table to fit
	// (the adaptive leaf sizing of §4.2.2).
	minByContiguity := b.minFanoutForContiguity(len(ms))

	// Constraint: an internal model's quantized slope (n / range) must be
	// at least one Q44.20 ulp or the model cannot distinguish children.
	minInternal := b.minFanoutForSlope(lo, hi)
	if minByContiguity > minInternal {
		minInternal = minByContiguity
	}
	if minN > minInternal {
		minInternal = minN
	}

	bestN, bestC := 0, math.Inf(1)
	if minByContiguity <= 1 && minN <= 1 {
		// A leaf is admissible.
		cr, ma, _ := b.trialLeaf(ms)
		bestN, bestC = 1, b.p.X1*1+b.p.X2*lines(NodeBytes)+x3*cr*ma
	}
	// Candidates: ±2 around the spline estimate (§4.2.3), plus small
	// fanouts — when one giant segment dominates the key space, a narrow
	// node that descends is far cheaper in walk-cache pressure than a wide
	// one whose width mirrors the count of tiny auxiliary segments.
	candidates := []int{2, 3, 4}
	for n := sp - 2; n <= sp+2; n++ {
		candidates = append(candidates, n)
	}
	// The feedback loop (§4.3.3) may demand a minimum fanout beyond every
	// spline-based candidate; the minimum itself must stay evaluable or
	// escalation would dead-end in a leaf.
	candidates = append(candidates, minInternal, minInternal+1, minInternal+2)
	seen := map[int]bool{}
	for _, n := range candidates {
		if n < minInternal || n > b.p.MaxFanout || n > maxByCoverage || seen[n] {
			continue
		}
		seen[n] = true
		c := b.refSplitCost(ms, lo, hi, n, depth, x3)
		if c < bestC {
			bestC, bestN = c, n
		}
	}
	if bestN == 0 {
		// No admissible split and no admissible leaf (contiguity demanded
		// a split that coverage or fanout forbids): fall back to a leaf,
		// which will chain extents if it must.
		bestN = 1
	}
	_ = depth
	return bestN
}

// refSplitCost estimates C(n) for subdividing into n children: depth,
// index size, and the children's collision costs. A child whose keys
// cannot be described by one model within the error bounds will subdivide
// again, so its hidden depth and width are priced with a one-level
// lookahead.
func (b *builder) refSplitCost(ms []Mapping, lo, hi uint64, n, depth int, x3 float64) float64 {
	parts := partitionEven(ms, lo, hi, n)
	var crma float64
	d := 2.0
	extraNodes := 0
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		cr, ma, disp := b.trialLeaf(part)
		crma += cr * ma * float64(len(part))
		if depth+1 < b.p.DLimit &&
			(disp > b.p.ErrSlotBudget || b.residualOf(part) > b.p.ResidualSlotBudget) {
			// This child will split again: one more level, and its own
			// children join the index.
			d = 3
			extraNodes += splineEstimate(part, b.errBudgetRanks())
		}
	}
	crma /= float64(len(ms))
	return b.p.X1*d + b.p.X2*lines((1+n+extraNodes)*NodeBytes) + x3*crma
}

// partitionEven splits mappings by even key-space division (float-space;
// used only for cost estimation).
func partitionEven(ms []Mapping, lo, hi uint64, n int) [][]Mapping {
	parts := make([][]Mapping, n)
	span := float64(hi-lo) + 1
	for _, m := range ms {
		i := int(float64(uint64(m.VPN)-lo) / span * float64(n))
		if i >= n {
			i = n - 1
		}
		parts[i] = append(parts[i], m)
	}
	return parts
}

// trialLeaf fits a leaf model over the mappings and simulates placement
// into a gapped array, returning the collision rate cr, the mean extra
// memory accesses per collision ma (the cost-model inputs of §4.2.3), and
// the maximum displacement between prediction and placement.
func (b *builder) trialLeaf(ms []Mapping) (cr, ma float64, maxDisp int) {
	preds := b.predictedSlots(ms)
	size := preds[len(preds)-1] + b.p.InsertReach + 1
	if occ := int(float64(len(ms))*b.p.GAScale) + 1; size < occ {
		size = occ
	}
	// Predictions are monotone but may repeat; simulate nearest-free-slot
	// placement. Keys arrive in ascending order, so when a prediction
	// plateau piles up, the free slot is always upward of the plateau —
	// track a rolling hint to keep the trial linear.
	occupied := make([]bool, size)
	collisions, extra := 0, 0
	hint := 0
	for _, p := range preds {
		if p >= size {
			p = size - 1
		}
		if !occupied[p] {
			occupied[p] = true
			continue
		}
		collisions++
		if hint <= p {
			hint = p + 1
		}
		for hint < size && occupied[hint] {
			hint++
		}
		d := 0
		if hint < size {
			occupied[hint] = true
			d = hint - p
		} else {
			d = size - p
		}
		extra += clusterDistance(d)
		if d > maxDisp {
			maxDisp = d
		}
	}
	if collisions == 0 {
		return 0, 0, maxDisp
	}
	return float64(collisions) / float64(len(ms)), float64(extra) / float64(collisions), maxDisp
}

// predictedSlots trains the (quantized) leaf model over ms and returns the
// predicted slot of every key, shifted so the minimum is 0, in key order.
// The same quantized arithmetic is used at build and walk time.
func (b *builder) predictedSlots(ms []Mapping) []int {
	keys := make([]uint64, len(ms))
	for i, m := range ms {
		keys[i] = uint64(m.VPN)
	}
	l := model.FitRanks(keys)
	l.Slope *= b.p.GAScale
	l.Intercept *= b.p.GAScale
	slope, intercept := l.Quantize()
	preds := make([]int, len(ms))
	minP := int64(math.MaxInt64)
	for i, k := range keys {
		p := fixed.MulAdd(slope, fixed.FromInt(int64(k)), intercept).Floor()
		preds[i] = int(p)
		if p < minP {
			minP = p
		}
	}
	for i := range preds {
		preds[i] -= int(minP)
	}
	return preds
}

// FuzzChooseFanout holds the fanout search to the reference over genLayout
// spaces: a node's key range padded on both sides, at any depth that may
// split, under any contiguity cap. A sequence of attempts on one search,
// each boosting x3 and raising the minimum fanout the way buildNode's two
// retry paths do, must choose the reference's fanout at a bit-identical
// cost, and every candidate the search evaluated must cost exactly what
// refSplitCost gives at every x3 used.
func FuzzChooseFanout(f *testing.F) {
	f.Add([]byte{0, 40, 3, 200, 7, 9}, uint8(0), uint16(0), uint16(0), uint8(0), uint8(0))
	f.Add([]byte{255, 255, 1, 255, 2, 255, 90, 17}, uint8(1), uint16(1000), uint16(60000), uint8(3), uint8(5))
	f.Add(bytes.Repeat([]byte{9, 250}, 40), uint8(0), uint16(7), uint16(9), uint8(1), uint8(0x2a))
	f.Fuzz(func(t *testing.T, raw []byte, depth uint8, loPad, hiPad uint16, capOrder, path uint8) {
		ms := genLayout(raw)
		if len(ms) == 0 {
			return
		}
		p := DefaultParams()
		mem := phys.New(64 << 20)
		mem.SetContiguityCap(int(capOrder%16) - 1)
		b := &builder{ix: &Index{mem: mem, params: p}, p: p}
		lo := uint64(ms[0].VPN) - uint64(loPad)%uint64(ms[0].VPN)
		hi := uint64(ms[len(ms)-1].VPN) + uint64(hiPad)
		d := 1 + int(depth)%(p.DLimit-1)
		s := b.newFanoutSearch(vpnsOf(ms), lo, hi, d)
		x3, minN := p.X3, 0
		var x3s []float64
		for attempt := 0; attempt < 6; attempt++ {
			x3s = append(x3s, x3)
			got, cost := s.choose(x3, minN)
			want := b.refChooseFanout(ms, lo, hi, d, x3, minN)
			wantCost := math.Inf(1)
			switch {
			case want > 1:
				wantCost = b.refSplitCost(ms, lo, hi, want, d, x3)
			case b.minFanoutForContiguity(len(ms)) <= 1 && minN <= 1:
				cr, ma, _ := b.trialLeaf(ms)
				wantCost = p.X1*1 + p.X2*lines(NodeBytes) + x3*cr*ma
			}
			if got != want || math.Float64bits(cost) != math.Float64bits(wantCost) {
				t.Fatalf("attempt %d (x3 %v, minN %d): fanout %d at %v, reference %d at %v",
					attempt, x3, minN, got, cost, want, wantCost)
			}
			x3 *= p.X3BoostFactor
			if path&(1<<attempt) == 0 {
				// The leaf failed its error bound.
				if minN = 2 * max2(minN, 1); minN < b.minFanoutForSlope(lo, hi) {
					minN = b.minFanoutForSlope(lo, hi)
				}
			} else {
				// Some leaf below the split violated the bound.
				minN = max2(got, 1) * 2
			}
		}
		if cr, ma, disp := b.trialLeaf(ms); s.leaf.cr != cr || s.leaf.ma != ma || s.leaf.maxDisp != disp ||
			s.leaf.fit.residual != b.residualOf(ms) {
			t.Fatalf("leaf trial %+v, reference cr %v ma %v disp %d residual %d", s.leaf, cr, ma, disp, b.residualOf(ms))
		}
		for _, st := range s.splits {
			for _, x3 := range x3s {
				got, want := s.splitCost(st.n, x3), b.refSplitCost(ms, lo, hi, st.n, d, x3)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("C(%d) at x3 %v: %v, reference %v", st.n, x3, got, want)
				}
			}
		}
	})
}
