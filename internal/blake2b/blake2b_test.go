package blake2b

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

// Known-answer tests from the RFC 7693 appendix and the official BLAKE2
// test vectors (unkeyed BLAKE2b-512).
func TestKnownVectors(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		// RFC 7693 Appendix A: BLAKE2b-512("abc").
		{"abc", "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d17d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923"},
		// Empty input, from the official test vectors.
		{"", "786a02f742015903c6c6fd852552d272912f4740e15847618a86e217f71f5419d25e1031afee585313896444934eb04b903a685b1448b755d56f701afe9be2ce"},
	}
	for _, c := range cases {
		got := hex.EncodeToString(Sum([]byte(c.in), 64))
		if got != c.want {
			t.Errorf("BLAKE2b-512(%q) =\n%s want\n%s", c.in, got, c.want)
		}
	}
}

func TestMultiBlock(t *testing.T) {
	// Exercise the multi-block path: input longer than 128 bytes must not
	// equal the hash of its prefix and must be deterministic.
	long := bytes.Repeat([]byte("x"), 1000)
	a := Sum256(long)
	b := Sum256(long)
	if a != b {
		t.Error("hash not deterministic")
	}
	c := Sum256(long[:999])
	if a == c {
		t.Error("prefix collision")
	}
}

func TestExactBlockBoundaries(t *testing.T) {
	// Lengths around the 128-byte block size all hash distinctly.
	seen := map[[32]byte]int{}
	for _, n := range []int{127, 128, 129, 255, 256, 257} {
		d := Sum256(bytes.Repeat([]byte{0xab}, n))
		if prev, dup := seen[d]; dup {
			t.Errorf("lengths %d and %d collide", prev, n)
		}
		seen[d] = n
	}
}

func TestDigestSizes(t *testing.T) {
	for _, size := range []int{1, 8, 16, 32, 64} {
		if got := len(Sum([]byte("key"), size)); got != size {
			t.Errorf("size %d: got %d bytes", size, got)
		}
	}
	// Different sizes are different hash functions (parameter block).
	a := Sum([]byte("key"), 32)
	b := Sum([]byte("key"), 64)
	if bytes.Equal(a, b[:32]) {
		t.Error("digest size must alter the parameter block")
	}
}

func TestBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for size 0")
		}
	}()
	Sum(nil, 0)
}

func TestSum64Distribution(t *testing.T) {
	// Sanity: low bits of Sum64 over sequential keys look uniform enough
	// for table indexing (no bucket gets > 3x its fair share).
	const buckets = 64
	const n = 64 * 256
	var counts [buckets]int
	for i := uint64(0); i < n; i++ {
		counts[Sum64(i)%buckets]++
	}
	for b, c := range counts {
		if c > 3*n/buckets {
			t.Errorf("bucket %d has %d of %d keys", b, c, n)
		}
	}
}

func TestQuickNoTrivialCollisions(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return Sum64(a) != Sum64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSum64MatchesSum checks the single-block Sum64 kernel against the RFC
// path: Sum64(k) must equal the little-endian first word of Sum(le(k), 8)
// for random keys, edge keys and the ECPT way seeds, and three pinned known
// answers (which Python's hashlib.blake2b(digest_size=8) reproduces) guard
// against both paths drifting together.
func TestSum64MatchesSum(t *testing.T) {
	ref := func(k uint64) uint64 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], k)
		return binary.LittleEndian.Uint64(Sum(b[:], 8))
	}
	if err := quick.Check(func(k uint64) bool { return Sum64(k) == ref(k) }, nil); err != nil {
		t.Error(err)
	}
	edges := []uint64{0, 1, 1 << 63, math.MaxUint64}
	// ECPT seeds way i of the size-s table with i*0x9e3779b97f4a7c15+s.
	for _, size := range []uint64{0, 1, 2} {
		for i := uint64(0); i < 3; i++ {
			edges = append(edges, i*0x9e3779b97f4a7c15+size)
		}
	}
	for _, k := range edges {
		if got, want := Sum64(k), ref(k); got != want {
			t.Errorf("Sum64(%#x) = %#x, Sum gives %#x", k, got, want)
		}
	}
	known := []struct{ key, want uint64 }{
		{0, 0x18cc49ca5bea08ca},
		{1, 0xfd0529b07bbc0433},
		{0x0123456789abcdef, 0x1539bf6cb59293ec},
	}
	for _, c := range known {
		if got := Sum64(c.key); got != c.want {
			t.Errorf("Sum64(%#x) = %#x, want %#x", c.key, got, c.want)
		}
	}
}
