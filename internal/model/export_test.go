package model

// Fit performs least-squares regression of arbitrary positions onto sorted
// keys; the index itself only ever fits ranks (FitRanks).
func Fit(keys []uint64, positions []float64) Linear {
	if len(keys) != len(positions) {
		panic("model: keys and positions length mismatch")
	}
	return fit(keys, positions)
}
