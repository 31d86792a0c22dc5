package workload

import "math/rand"

// Graph is a CSR-format directed graph, the in-memory representation
// graphBIG's kernels operate on. Offsets and Targets are the two big arrays
// whose virtual addresses dominate the access traces.
type Graph struct {
	V       int
	Offsets []uint64 // V+1 entries
	Targets []uint32 // E entries
}

// Kronecker generates an RMAT/Kronecker graph with 2^scale vertices and
// exactly avgDegree edges per vertex, the synthetic input the paper's graph
// workloads use (§6.2: "a Kronecker graph"). Standard Graph500 RMAT
// parameters (a=0.57, b=0.19, c=0.19).
//
// Each edge takes one rng.Float64 draw per bit, high bit first. The CSR
// lists every vertex's targets in ascending order, duplicates kept; it is
// built in O(V+E) by two counting sorts, by dst and then stably by src,
// with no comparison sort.
func Kronecker(scale int, avgDegree int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	v := 1 << uint(scale)
	e := v * avgDegree

	srcs := make([]uint32, e)
	dsts := make([]uint32, e)
	offsets := make([]uint64, v+1) // edges per src, then where each src starts
	byDst := make([]uint64, v+1)   // the same by dst
	const a, b, c = 0.57, 0.19, 0.19
	for i := range e {
		var src, dst uint32
		for range scale {
			// The quadrant of r, without a branch: [0,a) sets neither
			// bit, [a,a+b) dst's, [a+b,a+b+c) src's, [a+b+c,1) both.
			r := rng.Float64()
			s := bit(r >= a+b)
			src = src<<1 | s
			dst = dst<<1 | (bit(r >= a) ^ s ^ bit(r >= a+b+c))
		}
		srcs[i], dsts[i] = src, dst
		offsets[src+1]++
		byDst[dst+1]++
	}
	for u := 1; u <= v; u++ {
		offsets[u] += offsets[u-1]
		byDst[u] += byDst[u-1]
	}

	// Group the sources by dst. byDst[d] is d's cursor, and it ends where
	// d+1's group starts.
	srcsByDst := make([]uint32, e)
	for i, d := range dsts {
		srcsByDst[byDst[d]] = srcs[i]
		byDst[d]++
	}
	// Walk the groups in dst order and append each dst to its source's
	// list, so every list comes out sorted. offsets[s] is s's cursor, and
	// shifting the cursors up one slot afterwards restores the starts.
	// srcs is dead by now; its array becomes Targets.
	targets := srcs
	i := uint64(0)
	for d := range uint32(v) {
		for ; i < byDst[d]; i++ {
			s := srcsByDst[i]
			targets[offsets[s]] = d
			offsets[s]++
		}
	}
	copy(offsets[1:], offsets[:v])
	offsets[0] = 0
	return &Graph{V: v, Offsets: offsets, Targets: targets}
}

// bit is 1 for true and 0 for false; the compiler lowers it to a SETcc.
func bit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Degree returns the out-degree of vertex u.
func (g *Graph) Degree(u int) int {
	return int(g.Offsets[u+1] - g.Offsets[u])
}

// Neighbors returns the target slice of vertex u.
func (g *Graph) Neighbors(u int) []uint32 {
	return g.Targets[g.Offsets[u]:g.Offsets[u+1]]
}

// E returns the edge count.
func (g *Graph) E() int { return len(g.Targets) }
