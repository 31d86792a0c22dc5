package gapped

// Readers only the tests use.

// UsedPages returns the total 4 KB base pages covered by live entries
// (huge pages count their full span).
func (t *Table) UsedPages() uint64 {
	var pages uint64
	for _, s := range t.slots {
		if s.Valid() {
			pages += s.Entry.Size().BaseVPNs()
		}
	}
	return pages
}
