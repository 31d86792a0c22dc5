package blake2b

import (
	"math"
	"math/rand"
	"testing"
)

// sum64sKeys returns edge keys, the ECPT way seeds and random keys.
func sum64sKeys() []uint64 {
	keys := []uint64{0, 1, 2, 1 << 31, 1 << 32, 1 << 63, math.MaxUint64, math.MaxUint64 - 1, 0x0123456789abcdef}
	// ECPT seeds way i of the size-s table with i*0x9e3779b97f4a7c15+s.
	for _, size := range []uint64{0, 1, 2} {
		for i := uint64(0); i < 3; i++ {
			keys = append(keys, i*0x9e3779b97f4a7c15+size)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		keys = append(keys, rng.Uint64())
	}
	return keys
}

// TestSum64sMatchesSum64 runs the same keys through Sum64s, which takes the
// vector kernel where the host has one, and through the generic path, at
// every length from 0 to 9 so partial and multiple kernel calls are covered,
// and checks every output against Sum64.
func TestSum64sMatchesSum64(t *testing.T) {
	t.Logf("vector kernel: %v", haveKernel)
	keys := sum64sKeys()
	for n := 0; n <= 9; n++ {
		for lo := 0; lo+n <= len(keys); lo += n + 1 {
			in := keys[lo : lo+n]
			got := make([]uint64, n)
			generic := make([]uint64, n)
			Sum64s(got, in)
			sum64sGeneric(generic, in)
			for i, k := range in {
				want := Sum64(k)
				if got[i] != want || generic[i] != want {
					t.Fatalf("key %#x: Sum64s %#x, generic %#x, Sum64 %#x", k, got[i], generic[i], want)
				}
			}
		}
	}
	if !haveKernel {
		return
	}
	// The kernel itself, four lanes at a time, including its padding lanes.
	for i := 0; i+lanes <= len(keys); i += lanes {
		var in, out [lanes]uint64
		copy(in[:], keys[i:])
		sum64x4(&out, &in)
		for j, k := range in {
			if out[j] != Sum64(k) {
				t.Fatalf("sum64x4 lane %d key %#x: %#x, Sum64 %#x", j, k, out[j], Sum64(k))
			}
		}
	}
}

// TestSum64sZeroAllocs checks that hashing a caller's stack arrays
// allocates nothing: the kernel's arguments must not escape.
func TestSum64sZeroAllocs(t *testing.T) {
	keys := [3]uint64{1, 2, 3}
	var dst [3]uint64
	if n := testing.AllocsPerRun(100, func() { Sum64s(dst[:], keys[:]) }); n != 0 {
		t.Errorf("Sum64s: %v allocs per run, want 0", n)
	}
}

// FuzzSum64s checks Sum64s and the generic path against Sum64 on fuzzed
// keys; the input's length picks how many of the five keys are hashed.
func FuzzSum64s(f *testing.F) {
	f.Add(uint64(0), uint64(1), uint64(1<<63), uint64(math.MaxUint64), uint64(0x0123456789abcdef), uint8(5))
	f.Add(uint64(42), uint64(0), uint64(0), uint64(0), uint64(0), uint8(3))
	f.Fuzz(func(t *testing.T, a, b, c, d, e uint64, n uint8) {
		keys := []uint64{a, b, c, d, e}[:int(n)%6]
		got := make([]uint64, len(keys))
		generic := make([]uint64, len(keys))
		Sum64s(got, keys)
		sum64sGeneric(generic, keys)
		for i, k := range keys {
			if want := Sum64(k); got[i] != want || generic[i] != want {
				t.Fatalf("key %#x: Sum64s %#x, generic %#x, Sum64 %#x", k, got[i], generic[i], want)
			}
		}
	})
}
