//go:build !amd64

package blake2b

// haveKernel is false: only amd64 has the vector kernel.
const haveKernel = false

// sum64x4 keeps Sum64s compiling here; with haveKernel false it is never
// called.
func sum64x4(dst, keys *[lanes]uint64) { sum64sGeneric(dst[:], keys[:]) }
