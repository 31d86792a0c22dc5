package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"lvm/internal/addr"
	"lvm/internal/fixed"
	"lvm/internal/gapped"
	"lvm/internal/model"
	"lvm/internal/pte"
)

// errErrBound signals that a trained leaf cannot satisfy the error bound;
// the parent responds by boosting x3 and subdividing further (paper §4.3.3).
var errErrBound = errors.New("core: leaf error bound violated")

// builder runs the recursive training process of §4.3.1–§4.3.3.
type builder struct {
	ix *Index
	p  Params

	// Scratch every fit and trial reuses: the keys' predicted slots and a
	// trial's simulated placement.
	preds    []int
	occupied []bool
}

// buildNode trains the node responsible for mappings ms, whose VPNs are
// keys, covering the VPN range [lo, hi].
//
// The loop implements §4.3.3's feedback: if any leaf in the subtree cannot
// satisfy the error bound, the cost model is re-evaluated with a boosted x3
// and a higher minimum fanout so the key space is subdivided more finely,
// until the bound holds, widening is impossible, or attempts run out.
func (b *builder) buildNode(ms []Mapping, keys []uint64, lo, hi uint64, depth int) (*node, error) {
	if len(ms) == 0 {
		return makeEmptyLeaf(lo, hi), nil
	}
	if depth >= b.p.DLimit {
		// Depth limit reached: the node must be a leaf regardless of the
		// cost model (the d_limit constraint of §4.2.3).
		return b.makeLeaf(ms, b.fitLeaf(keys), lo, hi, true)
	}

	s := b.newFanoutSearch(keys, lo, hi, depth)
	x3 := b.p.X3
	minN := 0
	var best *node
	for attempt := 0; attempt < 6; attempt++ {
		fanout, _ := s.choose(x3, minN)
		if fanout <= 1 {
			// Skip the (expensive) table build when the trial placement
			// or the regression residual already shows the error bound
			// cannot hold.
			if s.leaf.maxDisp <= b.p.ErrSlotBudget && s.leaf.fit.residual <= b.p.ResidualSlotBudget {
				n, err := b.makeLeaf(ms, s.leaf.fit, lo, hi, false)
				if err == nil {
					return n, nil
				}
				if !errors.Is(err, errErrBound) {
					return nil, err
				}
			}
			// The leaf cannot meet the error bound: force subdividing on
			// the next attempt.
			x3 *= b.p.X3BoostFactor
			if minN = 2 * max2(minN, 1); minN < b.minFanoutForSlope(lo, hi) {
				minN = b.minFanoutForSlope(lo, hi)
			}
			continue
		}
		n, err := b.makeInternal(ms, keys, lo, hi, fanout, depth)
		if errors.Is(err, errDegenerate) {
			// Quantization collapsed the internal model; fall back to a
			// leaf with a relaxed bound.
			if best != nil {
				releaseSubtree(best)
			}
			return b.makeLeaf(ms, s.leaf.fit, lo, hi, true)
		}
		if err != nil {
			if best != nil {
				releaseSubtree(best)
			}
			return nil, err
		}
		if w := b.violationKeys(n); w*10 <= uint64(len(ms)) {
			// Accept: violations (if any) affect a negligible fraction of
			// keys — widening the whole node to chase them would inflate
			// the index against the cost model's own objective.
			if best != nil {
				releaseSubtree(best)
			}
			return n, nil
		}
		// Some leaf below still violates the bound: keep this attempt as
		// the best so far and retry with a boosted x3 and more children.
		if best != nil {
			releaseSubtree(best)
		}
		best = n
		x3 *= b.p.X3BoostFactor
		minN = fanout * 2
		if minN > b.p.MaxFanout || fanout >= b.maxFanoutForCoverage(lo, hi, depth) {
			break
		}
	}
	if best != nil {
		return best, nil
	}
	return b.makeLeaf(ms, s.leaf.fit, lo, hi, true)
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// violationKeys returns the keys held by leaves that exceed the error
// budgets, the quantity the §4.3.3 feedback loop drives down.
func (b *builder) violationKeys(n *node) uint64 {
	if n.isLeaf() {
		if n.maxDisp > b.p.ErrSlotBudget || n.residual > b.p.ResidualSlotBudget {
			if n.table != nil {
				return uint64(n.table.Used())
			}
		}
		return 0
	}
	var total uint64
	for _, c := range n.children {
		total += b.violationKeys(c)
	}
	return total
}

// releaseSubtree frees the gapped tables of a discarded build attempt.
func releaseSubtree(n *node) {
	if n.isLeaf() {
		if n.table != nil {
			n.table.Release()
		}
		return
	}
	for _, c := range n.children {
		releaseSubtree(c)
	}
}

// maxFanoutForCoverage returns the coverage-floor cap on children created
// at depth+1. The floor scales with depth the way radix locality does: a
// node near the root must cover as much per byte as an upper radix level
// (256 KB of VA per byte), while a node at the leaf level only needs to
// match a radix PTE table's locality (a 4 KB table mapping 2 MB), giving a
// 16× smaller floor per level (paper §4.2.3).
func (b *builder) maxFanoutForCoverage(lo, hi uint64, depth int) int {
	rangeBytes := (hi - lo + 1) << addr.PageShift
	floor := b.p.CoverageFloor >> (4 * uint(depth-1))
	if floor < 4<<10 {
		floor = 4 << 10
	}
	n := int(rangeBytes / (NodeBytes * floor))
	if n < 1 {
		n = 1
	}
	return n
}

// errBudgetRanks converts the residual budget into rank units for spline
// counting (ranks are pre-GAScale positions).
func (b *builder) errBudgetRanks() float64 {
	return float64(b.p.ResidualSlotBudget) / b.p.GAScale
}

// vpnsOf returns the VPNs of ms, the keys every model over ms is fit to.
func vpnsOf(ms []Mapping) []uint64 {
	keys := make([]uint64, len(ms))
	for i, m := range ms {
		keys[i] = uint64(m.VPN)
	}
	return keys
}

// fanoutSearch evaluates the cost model C(n) for one node across the
// attempts of buildNode's §4.3.3 feedback loop. The attempts change only
// x3 and the minimum fanout, so everything C(n) needs besides x3 — the
// spline estimate, the node's own leaf trial and, per candidate n, the
// depth, extra nodes and Σcr·ma of an even split — is computed once.
type fanoutSearch struct {
	b *builder
	// keys are the node's sorted VPNs, covering [lo, hi].
	keys   []uint64
	lo, hi uint64
	depth  int
	// sp is the spline-point estimate of the node's child count.
	sp int
	// leaf is the trial of the node's keys as one leaf.
	leaf leafTrial
	// splits holds every candidate fanout evaluated so far.
	splits []splitTrial
}

// leafFit is one leaf model trained over sorted keys (§4.3.2): the rank
// fit's scaled worst-case residual in slots, its GAScale'd slope and
// intercept quantized to Q44.20, and the smallest and largest slot it
// predicts for the keys.
type leafFit struct {
	residual         int
	slope, intercept fixed.Q
	minP, maxP       int64
}

// leafTrial is what a trial placement of keys into one leaf shows: the fit,
// the collision rate cr, the mean extra memory accesses per collision ma
// (the cost-model inputs of §4.2.3), and the largest displacement between
// prediction and placement.
type leafTrial struct {
	fit     leafFit
	cr, ma  float64
	maxDisp int
}

// splitTrial holds the x3-independent terms of C(n) for n even children:
// the depth d, the extra nodes of children that will split again, and the
// key-weighted mean cr·ma of the children.
type splitTrial struct {
	n          int
	d          float64
	extraNodes int
	crma       float64
}

func (b *builder) newFanoutSearch(keys []uint64, lo, hi uint64, depth int) *fanoutSearch {
	return &fanoutSearch{
		b: b, keys: keys, lo: lo, hi: hi, depth: depth,
		sp:   model.SplinePoints(keys, b.errBudgetRanks()),
		leaf: b.trial(keys),
	}
}

// choose evaluates C(n) = x1·d + x2·s + x3·cr·ma over candidate child
// counts around the spline-point estimate (±2, §4.2.3) and returns the
// winner with its cost; a fanout of 1 means "stay a leaf", at cost +Inf
// when no candidate was admissible.
func (s *fanoutSearch) choose(x3 float64, minN int) (int, float64) {
	b := s.b
	// Constraint: children must each cover enough address space per byte
	// of index (the cacheability floor of §4.2.3).
	maxByCoverage := b.maxFanoutForCoverage(s.lo, s.hi, s.depth)

	// Constraint: if the leaf table would exceed the available physical
	// contiguity, enough siblings must be created for each table to fit
	// (the adaptive leaf sizing of §4.2.2). Builds between attempts move
	// the contiguity, so this is re-read every time.
	minByContiguity := b.minFanoutForContiguity(len(s.keys))

	// Constraint: an internal model's quantized slope (n / range) must be
	// at least one Q44.20 ulp or the model cannot distinguish children.
	minInternal := b.minFanoutForSlope(s.lo, s.hi)
	if minByContiguity > minInternal {
		minInternal = minByContiguity
	}
	if minN > minInternal {
		minInternal = minN
	}

	bestN, bestC := 0, math.Inf(1)
	if minByContiguity <= 1 && minN <= 1 {
		// A leaf is admissible.
		bestN, bestC = 1, b.p.X1*1+b.p.X2*lines(NodeBytes)+x3*s.leaf.cr*s.leaf.ma
	}
	// Candidates: ±2 around the spline estimate (§4.2.3), plus small
	// fanouts — when one giant segment dominates the key space, a narrow
	// node that descends is far cheaper in walk-cache pressure than a wide
	// one whose width mirrors the count of tiny auxiliary segments. The
	// feedback loop (§4.3.3) may demand a minimum fanout beyond every
	// spline-based candidate; the minimum itself must stay evaluable or
	// escalation would dead-end in a leaf.
	candidates := [...]int{2, 3, 4, s.sp - 2, s.sp - 1, s.sp, s.sp + 1, s.sp + 2,
		minInternal, minInternal + 1, minInternal + 2}
	for i, n := range candidates {
		if n < minInternal || n > b.p.MaxFanout || n > maxByCoverage || slices.Contains(candidates[:i], n) {
			continue
		}
		if c := s.splitCost(n, x3); c < bestC {
			bestC, bestN = c, n
		}
	}
	if bestN == 0 {
		// No admissible split and no admissible leaf (contiguity demanded
		// a split that coverage or fanout forbids): fall back to a leaf,
		// which will chain extents if it must.
		bestN = 1
	}
	return bestN, bestC
}

// minFanoutForSlope returns the smallest child count whose internal model
// slope n/(hi−lo+1) survives Q44.20 quantization (≥ 2^-20).
func (b *builder) minFanoutForSlope(lo, hi uint64) int {
	span := hi - lo + 1
	n := int(span>>fixed.FracBits) + 2
	if n < 2 {
		n = 2
	}
	return n
}

// lines converts bytes to 64-byte cache lines, the size unit s of the cost
// model (a node's cost is its pressure on the walk cache).
func lines(bytes int) float64 { return float64(bytes) / 64 }

// splitCost is C(n) for subdividing into n children.
func (s *fanoutSearch) splitCost(n int, x3 float64) float64 {
	t := s.split(n)
	return s.b.p.X1*t.d + s.b.p.X2*lines((1+n+t.extraNodes)*NodeBytes) + x3*t.crma
}

// split returns the x3-independent terms of C(n) for subdividing into n
// children by even key-space division, computing them on first use. A child
// whose keys cannot be described by one model within the error bounds will
// subdivide again, so its hidden depth and width are priced with a
// one-level lookahead.
func (s *fanoutSearch) split(n int) splitTrial {
	for _, t := range s.splits {
		if t.n == n {
			return t
		}
	}
	b, keys := s.b, s.keys
	t := splitTrial{n: n, d: 2}
	var crma float64
	// The even division's float bucket index is monotone in the VPN, so
	// each child's keys are a contiguous run of the sorted keys.
	span := float64(s.hi-s.lo) + 1
	bucket := func(i int) int {
		k := int(float64(keys[i]-s.lo) / span * float64(n))
		if k >= n {
			k = n - 1
		}
		return k
	}
	for start := 0; start < len(keys); {
		k := bucket(start)
		end := start + sort.Search(len(keys)-start, func(i int) bool { return bucket(start+i) > k })
		part := keys[start:end]
		start = end
		lt := b.trial(part)
		crma += lt.cr * lt.ma * float64(len(part))
		if s.depth+1 < b.p.DLimit &&
			(lt.maxDisp > b.p.ErrSlotBudget || lt.fit.residual > b.p.ResidualSlotBudget) {
			// This child will split again: one more level, and its own
			// children join the index.
			t.d = 3
			t.extraNodes += model.SplinePoints(part, b.errBudgetRanks())
		}
	}
	t.crma = crma / float64(len(keys))
	s.splits = append(s.splits, t)
	return t
}

// fitLeaf fits one leaf model over the sorted keys, leaving each key's
// predicted slot in b.preds[:len(keys)].
func (b *builder) fitLeaf(keys []uint64) leafFit {
	l := model.FitRanks(keys)
	f := leafFit{residual: int(l.MaxAbsErr() * b.p.GAScale), minP: math.MaxInt64, maxP: math.MinInt64}
	// Predicted slots under the quantized, GAScale-scaled model: the same
	// arithmetic the walk uses.
	l.Slope *= b.p.GAScale
	l.Intercept *= b.p.GAScale
	f.slope, f.intercept = l.Quantize()
	if cap(b.preds) < len(keys) {
		b.preds = make([]int, len(keys))
	}
	preds := b.preds[:len(keys)]
	for i, k := range keys {
		p := fixed.MulAdd(f.slope, fixed.FromInt(int64(k)), f.intercept).Floor()
		preds[i] = int(p)
		if p < f.minP {
			f.minP = p
		}
		if p > f.maxP {
			f.maxP = p
		}
	}
	return f
}

// trial fits one leaf model over the sorted keys and simulates
// nearest-free-slot placement of its quantized predictions into a gapped
// array.
func (b *builder) trial(keys []uint64) leafTrial {
	t := leafTrial{fit: b.fitLeaf(keys)}
	// Shift the predictions so the minimum is slot 0.
	preds := b.preds[:len(keys)]
	for i := range preds {
		preds[i] -= int(t.fit.minP)
	}
	size := preds[len(preds)-1] + b.p.InsertReach + 1
	if occ := int(float64(len(keys))*b.p.GAScale) + 1; size < occ {
		size = occ
	}
	// Predictions are monotone but may repeat; simulate nearest-free-slot
	// placement. Keys arrive in ascending order, so when a prediction
	// plateau piles up, the free slot is always upward of the plateau —
	// track a rolling hint to keep the trial linear.
	if cap(b.occupied) < size {
		b.occupied = make([]bool, size)
	}
	occupied := b.occupied[:size]
	clear(occupied)
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
		if d > t.maxDisp {
			t.maxDisp = d
		}
	}
	if collisions > 0 {
		t.cr = float64(collisions) / float64(len(keys))
		t.ma = float64(extra) / float64(collisions)
	}
	return t
}

// clusterDistance converts a slot displacement into the number of extra
// cluster fetches a lookup needs (outward search visits both sides).
func clusterDistance(slots int) int {
	c := (slots + pte.ClusterSlots - 1) / pte.ClusterSlots
	if c == 0 {
		return 0
	}
	return 2*c - 1
}

// minFanoutForContiguity returns the minimum number of children needed so
// each child's table fits the largest physically contiguous block available.
func (b *builder) minFanoutForContiguity(keys int) int {
	maxOrder := b.ix.mem.MaxFreeOrder()
	if maxOrder < 0 {
		return 1 // out of memory; allocation will fail loudly later
	}
	tableBytes := uint64(float64(keys)*b.p.GAScale) * gapped.SlotBytes
	blockBytes := uint64(1) << uint(maxOrder+addr.PageShift)
	if tableBytes <= blockBytes {
		return 1
	}
	n := int((tableBytes + blockBytes - 1) / blockBytes)
	if n > b.p.MaxFanout {
		n = b.p.MaxFanout
	}
	return n
}

// errDegenerate signals that quantization collapsed an internal model so it
// cannot distinguish children.
var errDegenerate = errors.New("core: internal model degenerate after quantization")

// makeInternal trains an internal node with ~n children: a linear model
// that evenly divides [lo, hi] (paper §4.3.2), quantized to Q44.20.
//
// The child granule is snapped to a power-of-two multiple of 512 pages
// (2 MB) nearest span/n. Two properties follow: the slope 1/granule and
// the intercept −lo/granule are exactly representable in Q44.20 (so the
// quantized model's boundaries are exact), and no boundary can fall inside
// a huge page — with 2 MB-aligned regions (the ASLR normalizer guarantees
// this), a child never splits a translation granule, which keeps interior
// huge-page lookups routed to the right leaf.
func (b *builder) makeInternal(ms []Mapping, keys []uint64, lo, hi uint64, n int, depth int) (*node, error) {
	span := hi - lo + 1
	granule := uint64(512)
	for granule*2 <= span/uint64(n) && granule < 1<<fixed.FracBits {
		granule *= 2
	}
	nEff := int((span + granule - 1) / granule)
	for nEff > b.p.MaxFanout && granule < 1<<fixed.FracBits {
		granule *= 2
		nEff = int((span + granule - 1) / granule)
	}
	if nEff < 2 {
		return nil, errDegenerate
	}
	n = nEff
	l := model.Linear{Slope: 1 / float64(granule), Intercept: -float64(lo) / float64(granule)}
	slope, intercept := l.Quantize()
	if slope <= 0 {
		return nil, errDegenerate
	}
	nd := &node{
		slope:     slope,
		intercept: intercept,
		loKey:     lo,
		hiKey:     hi,
	}
	predict := func(v uint64) int {
		p := fixed.MulAdd(slope, fixed.FromInt(int64(v)), intercept).Floor()
		if p < 0 {
			p = 0
		}
		if p >= int64(n) {
			p = int64(n) - 1
		}
		return int(p)
	}
	// Partition mappings by the quantized model. It is monotone, so child
	// i's mappings are the contiguous run starting at the first mapping it
	// routes to i or beyond.
	starts := make([]int, n+1)
	distinct := 0
	for i := 0; i < n; i++ {
		from := starts[i]
		starts[i+1] = from + sort.Search(len(ms)-from, func(j int) bool { return predict(uint64(ms[from+j].VPN)) > i })
		if starts[i+1] > from {
			distinct++
		}
	}
	if distinct < 2 {
		return nil, errDegenerate
	}
	// Child key ranges: child i is responsible for the contiguous VPN span
	// the quantized model routes to it, found by binary search.
	bounds := make([]uint64, n+1)
	bounds[0] = lo
	bounds[n] = hi + 1
	for i := 1; i < n; i++ {
		// Smallest v in [bounds[i-1], hi] with predict(v) >= i.
		loV, hiV := bounds[i-1], hi+1
		for loV < hiV {
			mid := loV + (hiV-loV)/2
			if predict(mid) >= i {
				hiV = mid
			} else {
				loV = mid + 1
			}
		}
		bounds[i] = loV
	}
	nd.children = make([]*node, n)
	for i := 0; i < n; i++ {
		cLo, cHi := bounds[i], bounds[i+1]-1
		if cHi < cLo {
			cHi = cLo
		}
		child, err := b.buildNode(ms[starts[i]:starts[i+1]], keys[starts[i]:starts[i+1]], cLo, cHi, depth+1)
		if err != nil {
			for _, c := range nd.children[:i] {
				releaseSubtree(c)
			}
			return nil, err
		}
		nd.children[i] = child
	}
	return nd, nil
}

// makeLeaf builds a leaf node over ms from fit, the leaf model trained over
// their VPNs (§4.3.2), backed by a freshly allocated gapped page table with
// the entries inserted at their predicted positions. Every leaf uses the
// rank model: a positional model (slot = ga_scale x (VPN - lo), see
// makePositionalLeaf) predicts every key exactly, but its sparse tables are
// cache-hostile at scaled cache sizes.
//
// If relaxed is false, the leaf reports errErrBound when any key's actual
// slot is farther than ErrSlotBudget from its prediction.
func (b *builder) makeLeaf(ms []Mapping, fit leafFit, lo, hi uint64, relaxed bool) (*node, error) {
	if !relaxed && fit.residual > b.p.ResidualSlotBudget {
		// The error bound enforced during regression (§4.3.3): the parent
		// must subdivide.
		return nil, errErrBound
	}
	// Shift the intercept so the smallest prediction is slot 0, then size
	// the table to cover the largest prediction plus search margin.
	nd := &node{slope: fit.slope, intercept: fit.intercept.Add(fixed.FromInt(-fit.minP)),
		loKey: lo, hiKey: hi, leaf: true, residual: fit.residual}
	needSlots := int(fit.maxP-fit.minP) + b.p.InsertReach + pte.ClusterSlots + 1
	// Guarantee enough total room for every key even when quantization
	// flattens predictions (pathological spaces): at least ga_scale × keys.
	if occ := int(float64(len(ms))*b.p.GAScale) + pte.ClusterSlots + 1; needSlots < occ {
		needSlots = occ
	}

	table, err := gapped.New(b.ix.mem, needSlots, b.ix.availOrder())
	if err != nil {
		return nil, err
	}
	for table.Slots() < needSlots {
		// Contiguity-limited: chain extents so the logical table still
		// covers the prediction range.
		if err := table.Expand(needSlots-table.Slots(), b.ix.availOrder()); err != nil {
			table.Release()
			return nil, err
		}
	}
	nd.table = table

	// Insert entries at predicted slots. Build uses a generous reach so a
	// dense cluster of equal predictions can still place (the error bound
	// decides afterwards whether the leaf is acceptable). Relaxed builds
	// (pathological spaces) use monotone placement instead, which stays
	// linear even when quantization flattens predictions into plateaus.
	buildReach := b.p.InsertReach * 8
	if buildReach < pte.ClusterSlots*2 {
		buildReach = pte.ClusterSlots * 2
	}
	hint := 0
	for _, m := range ms {
		pred := nd.predict(m.VPN)
		var slot int
		var err error
		if relaxed {
			slot, err = table.PlaceFrom(hint, int(pred), m.VPN, m.Entry)
			hint = slot + 1
		} else {
			slot, _, err = table.Insert(int(pred), m.VPN, m.Entry, buildReach)
		}
		if err != nil {
			table.Release()
			nd.table = nil
			if relaxed {
				return nil, fmt.Errorf("core: leaf table overflow on build: %w", err)
			}
			return nil, errErrBound
		}
		if d := abs(slot - int(pred)); d > nd.maxDisp {
			nd.maxDisp = d
		}
	}
	if !relaxed && nd.maxDisp > b.p.ErrSlotBudget {
		table.Release()
		nd.table = nil
		return nil, errErrBound
	}
	return nd, nil
}

// makeEmptyLeaf builds a leaf with no keys (an empty child range). It has
// no table; walks through it miss, and a first insert creates the table by
// retraining the leaf.
func makeEmptyLeaf(lo, hi uint64) *node {
	return &node{loKey: lo, hiKey: hi, leaf: true}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
