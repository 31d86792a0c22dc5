package blake2b

// lanes is how many keys one call of the vector kernel hashes.
const lanes = 4

// Sum64s sets dst[i] = Sum64(keys[i]) for every key. Where the host has the
// vector kernel (see haveKernel) it hashes up to four keys per kernel call,
// one per lane, which costs about as much as one Sum64; elsewhere it calls
// Sum64 once per key. dst must be at least as long as keys.
func Sum64s(dst, keys []uint64) {
	dst = dst[:len(keys)]
	if !haveKernel {
		sum64sGeneric(dst, keys)
		return
	}
	for len(keys) > 0 {
		n := min(len(keys), lanes)
		var in, out [lanes]uint64
		copy(in[:], keys[:n])
		sum64x4(&out, &in)
		copy(dst, out[:n])
		dst, keys = dst[n:], keys[n:]
	}
}

// sum64sGeneric is Sum64s without the kernel: the path on hosts that lack
// it, and the reference the kernel is tested against.
func sum64sGeneric(dst, keys []uint64) {
	for i, k := range keys {
		dst[i] = Sum64(k)
	}
}
