package hwarea

// Readers only the tests use.

// SizeBytes returns the storage capacity in bytes (data + tags).
func (s Structure) SizeBytes() int {
	bits := s.Entries() * (s.RAMBitsPerEntry + s.CAMBitsPerEntry)
	return bits / 8
}
