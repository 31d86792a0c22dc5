package blake2b

// haveKernel reports whether sum64x4 can run here. It is decided once, from
// CPUID and XGETBV: the kernel needs AVX2, AVX512F and AVX512VL (VPRORQ on
// YMM registers, and Y16 for the keys), and an OS that saves the opmask and
// upper ZMM state across context switches.
var haveKernel = detectKernel()

func detectKernel() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 { // OSXSAVE: XGETBV is usable
		return false
	}
	// XCR0 bits 1, 2, 5, 6, 7: SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM state.
	const osState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&osState != osState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const features = 1<<5 | 1<<16 | 1<<31 // AVX2, AVX512F, AVX512VL
	return ebx&features == features
}

// sum64x4 sets dst[i] = Sum64(keys[i]) for all four lanes with AVX-512VL.
//
//go:noescape
func sum64x4(dst, keys *[lanes]uint64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
