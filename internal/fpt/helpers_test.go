package fpt

// Readers only the tests use.

// FoldFailures counts 2 MB table allocations that fell back to radix.
func (t *Table) FoldFailures() uint64 { return t.foldFailures.Value() }

// FoldedFraction returns the fraction of touched 1 GB regions with folded
// leaf tables.
func (t *Table) FoldedFraction() float64 {
	if len(t.regions) == 0 {
		return 1
	}
	folded := 0
	for _, r := range t.regions {
		if r.folded {
			folded++
		}
	}
	return float64(folded) / float64(len(t.regions))
}
