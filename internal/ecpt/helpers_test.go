package ecpt

// Readers only the tests use.

// Rehashes returns the number of elastic resizes performed.
func (t *Table) Rehashes() uint64 {
	var n uint64
	for _, c := range t.tables {
		n += c.rehashes.Value()
	}
	return n
}
