package revelator

// Readers only the tests use.

// LiveEntries returns the hash table's live translation count.
func (t *Table) LiveEntries() int { return t.live }

// Slots returns the hash table's capacity.
func (t *Table) Slots() int { return len(t.slots) }
