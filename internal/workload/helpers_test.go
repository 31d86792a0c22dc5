package workload

// Readers only the tests use.

// Degree returns the out-degree of vertex u.
func (g *Graph) Degree(u int) int {
	return int(g.Offsets[u+1] - g.Offsets[u])
}
