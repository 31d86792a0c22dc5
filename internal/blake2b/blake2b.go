// Package blake2b implements the BLAKE2b hash function of RFC 7693,
// unkeyed, with selectable digest size up to 64 bytes.
//
// The paper's §7.3 collision-rate baseline is "a hash table that has a load
// factor of 0.6 and uses the state-of-the-art hash function Blake2"; the
// repository is restricted to the standard library, so the algorithm is
// implemented here from the RFC. Only the pieces the baseline needs are
// provided: one-shot hashing and a convenience Sum64 for table indexing.
package blake2b

import (
	"encoding/binary"
	"math/bits"
)

// iv is the BLAKE2b initialization vector (RFC 7693 §2.6).
var iv = [8]uint64{
	0x6a09e667f3bcc908, 0xbb67ae8584caa73b,
	0x3c6ef372fe94f82b, 0xa54ff53a5f1d36f1,
	0x510e527fade682d1, 0x9b05688c2b3e6c1f,
	0x1f83d9abfb41bd6b, 0x5be0cd19137e2179,
}

// sigma is the message schedule (RFC 7693 §2.7).
var sigma = [12][16]uint8{
	{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	{14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
	{11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
	{7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
	{9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
	{2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
	{12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
	{13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
	{6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
	{10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0},
	{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
	{14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
}

// g is the BLAKE2b mixing function (RFC 7693 §3.1) on the four state words
// (a, b, c, d) with message words x and y. It returns the words rather than
// updating an array so Sum64 can keep the whole state in registers.
func g(a, b, c, d, x, y uint64) (uint64, uint64, uint64, uint64) {
	a += b + x
	d = bits.RotateLeft64(d^a, -32)
	c += d
	b = bits.RotateLeft64(b^c, -24)
	a += b + y
	d = bits.RotateLeft64(d^a, -16)
	c += d
	b = bits.RotateLeft64(b^c, -63)
	return a, b, c, d
}

// compress applies the F compression function to one 128-byte block.
func compress(h *[8]uint64, block *[128]byte, t uint64, final bool) {
	var m [16]uint64
	for i := range m {
		m[i] = binary.LittleEndian.Uint64(block[i*8:])
	}
	var v [16]uint64
	copy(v[:8], h[:])
	copy(v[8:], iv[:])
	v[12] ^= t // low word of the offset counter; high word is 0 for our sizes
	if final {
		v[14] = ^v[14]
	}
	for r := 0; r < 12; r++ {
		s := &sigma[r]
		v[0], v[4], v[8], v[12] = g(v[0], v[4], v[8], v[12], m[s[0]], m[s[1]])
		v[1], v[5], v[9], v[13] = g(v[1], v[5], v[9], v[13], m[s[2]], m[s[3]])
		v[2], v[6], v[10], v[14] = g(v[2], v[6], v[10], v[14], m[s[4]], m[s[5]])
		v[3], v[7], v[11], v[15] = g(v[3], v[7], v[11], v[15], m[s[6]], m[s[7]])
		v[0], v[5], v[10], v[15] = g(v[0], v[5], v[10], v[15], m[s[8]], m[s[9]])
		v[1], v[6], v[11], v[12] = g(v[1], v[6], v[11], v[12], m[s[10]], m[s[11]])
		v[2], v[7], v[8], v[13] = g(v[2], v[7], v[8], v[13], m[s[12]], m[s[13]])
		v[3], v[4], v[9], v[14] = g(v[3], v[4], v[9], v[14], m[s[14]], m[s[15]])
	}
	for i := 0; i < 8; i++ {
		h[i] ^= v[i] ^ v[i+8]
	}
}

// Sum computes the unkeyed BLAKE2b digest of data with the given output
// size in bytes (1..64).
func Sum(data []byte, size int) []byte {
	if size < 1 || size > 64 {
		panic("blake2b: digest size out of range")
	}
	var h [8]uint64
	copy(h[:], iv[:])
	// Parameter block: digest length, fanout=1, depth=1.
	h[0] ^= 0x01010000 ^ uint64(size)

	var block [128]byte
	var t uint64
	for len(data) > 128 {
		copy(block[:], data[:128])
		t += 128
		compress(&h, &block, t, false)
		data = data[128:]
	}
	// Final (possibly partial, possibly empty) block.
	block = [128]byte{}
	copy(block[:], data)
	t += uint64(len(data))
	compress(&h, &block, t, true)

	out := make([]byte, 64)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], h[i])
	}
	return out[:size]
}

// Sum256 computes the 32-byte BLAKE2b-256 digest.
func Sum256(data []byte) [32]byte {
	var d [32]byte
	copy(d[:], Sum(data, 32))
	return d
}

// Sum64 hashes a 64-bit key and returns the first 8 digest bytes as a
// uint64, the form the hashed page tables (ecpt, revelator, hashpt) use for
// slot selection. It equals the little-endian first word of
// Sum(le(key), 8), which TestSum64MatchesSum checks, but runs as one
// specialised final compression: the parameter block, offset counter and
// final flag are folded into the initial state, the 16 working words live in
// locals, and the message schedule is folded too. The key is message word 0
// and words 1..15 are zero, so each of the 96 unrolled g calls below passes
// the key where sigma names word 0 and the constant 0 everywhere else.
func Sum64(key uint64) uint64 {
	p0 := iv[0] ^ 0x01010000 ^ 8 // h[0] after the parameter block, as in Sum
	v0, v1, v2, v3 := p0, iv[1], iv[2], iv[3]
	v4, v5, v6, v7 := iv[4], iv[5], iv[6], iv[7]
	v8, v9, v10, v11 := iv[0], iv[1], iv[2], iv[3]
	v12, v13, v14, v15 := iv[4]^8, iv[5], ^iv[6], iv[7] // t = 8 bytes, final block

	v0, v4, v8, v12 = g(v0, v4, v8, v12, key, 0)
	v1, v5, v9, v13 = g(v1, v5, v9, v13, 0, 0)
	v2, v6, v10, v14 = g(v2, v6, v10, v14, 0, 0)
	v3, v7, v11, v15 = g(v3, v7, v11, v15, 0, 0)
	v0, v5, v10, v15 = g(v0, v5, v10, v15, 0, 0)
	v1, v6, v11, v12 = g(v1, v6, v11, v12, 0, 0)
	v2, v7, v8, v13 = g(v2, v7, v8, v13, 0, 0)
	v3, v4, v9, v14 = g(v3, v4, v9, v14, 0, 0)

	v0, v4, v8, v12 = g(v0, v4, v8, v12, 0, 0)
	v1, v5, v9, v13 = g(v1, v5, v9, v13, 0, 0)
	v2, v6, v10, v14 = g(v2, v6, v10, v14, 0, 0)
	v3, v7, v11, v15 = g(v3, v7, v11, v15, 0, 0)
	v0, v5, v10, v15 = g(v0, v5, v10, v15, 0, 0)
	v1, v6, v11, v12 = g(v1, v6, v11, v12, key, 0)
	v2, v7, v8, v13 = g(v2, v7, v8, v13, 0, 0)
	v3, v4, v9, v14 = g(v3, v4, v9, v14, 0, 0)

	v0, v4, v8, v12 = g(v0, v4, v8, v12, 0, 0)
	v1, v5, v9, v13 = g(v1, v5, v9, v13, 0, key)
	v2, v6, v10, v14 = g(v2, v6, v10, v14, 0, 0)
	v3, v7, v11, v15 = g(v3, v7, v11, v15, 0, 0)
	v0, v5, v10, v15 = g(v0, v5, v10, v15, 0, 0)
	v1, v6, v11, v12 = g(v1, v6, v11, v12, 0, 0)
	v2, v7, v8, v13 = g(v2, v7, v8, v13, 0, 0)
	v3, v4, v9, v14 = g(v3, v4, v9, v14, 0, 0)

	v0, v4, v8, v12 = g(v0, v4, v8, v12, 0, 0)
	v1, v5, v9, v13 = g(v1, v5, v9, v13, 0, 0)
	v2, v6, v10, v14 = g(v2, v6, v10, v14, 0, 0)
	v3, v7, v11, v15 = g(v3, v7, v11, v15, 0, 0)
	v0, v5, v10, v15 = g(v0, v5, v10, v15, 0, 0)
	v1, v6, v11, v12 = g(v1, v6, v11, v12, 0, 0)
	v2, v7, v8, v13 = g(v2, v7, v8, v13, 0, key)
	v3, v4, v9, v14 = g(v3, v4, v9, v14, 0, 0)

	v0, v4, v8, v12 = g(v0, v4, v8, v12, 0, key)
	v1, v5, v9, v13 = g(v1, v5, v9, v13, 0, 0)
	v2, v6, v10, v14 = g(v2, v6, v10, v14, 0, 0)
	v3, v7, v11, v15 = g(v3, v7, v11, v15, 0, 0)
	v0, v5, v10, v15 = g(v0, v5, v10, v15, 0, 0)
	v1, v6, v11, v12 = g(v1, v6, v11, v12, 0, 0)
	v2, v7, v8, v13 = g(v2, v7, v8, v13, 0, 0)
	v3, v4, v9, v14 = g(v3, v4, v9, v14, 0, 0)

	v0, v4, v8, v12 = g(v0, v4, v8, v12, 0, 0)
	v1, v5, v9, v13 = g(v1, v5, v9, v13, 0, 0)
	v2, v6, v10, v14 = g(v2, v6, v10, v14, key, 0)
	v3, v7, v11, v15 = g(v3, v7, v11, v15, 0, 0)
	v0, v5, v10, v15 = g(v0, v5, v10, v15, 0, 0)
	v1, v6, v11, v12 = g(v1, v6, v11, v12, 0, 0)
	v2, v7, v8, v13 = g(v2, v7, v8, v13, 0, 0)
	v3, v4, v9, v14 = g(v3, v4, v9, v14, 0, 0)

	v0, v4, v8, v12 = g(v0, v4, v8, v12, 0, 0)
	v1, v5, v9, v13 = g(v1, v5, v9, v13, 0, 0)
	v2, v6, v10, v14 = g(v2, v6, v10, v14, 0, 0)
	v3, v7, v11, v15 = g(v3, v7, v11, v15, 0, 0)
	v0, v5, v10, v15 = g(v0, v5, v10, v15, key, 0)
	v1, v6, v11, v12 = g(v1, v6, v11, v12, 0, 0)
	v2, v7, v8, v13 = g(v2, v7, v8, v13, 0, 0)
	v3, v4, v9, v14 = g(v3, v4, v9, v14, 0, 0)

	v0, v4, v8, v12 = g(v0, v4, v8, v12, 0, 0)
	v1, v5, v9, v13 = g(v1, v5, v9, v13, 0, 0)
	v2, v6, v10, v14 = g(v2, v6, v10, v14, 0, 0)
	v3, v7, v11, v15 = g(v3, v7, v11, v15, 0, 0)
	v0, v5, v10, v15 = g(v0, v5, v10, v15, 0, key)
	v1, v6, v11, v12 = g(v1, v6, v11, v12, 0, 0)
	v2, v7, v8, v13 = g(v2, v7, v8, v13, 0, 0)
	v3, v4, v9, v14 = g(v3, v4, v9, v14, 0, 0)

	v0, v4, v8, v12 = g(v0, v4, v8, v12, 0, 0)
	v1, v5, v9, v13 = g(v1, v5, v9, v13, 0, 0)
	v2, v6, v10, v14 = g(v2, v6, v10, v14, 0, 0)
	v3, v7, v11, v15 = g(v3, v7, v11, v15, key, 0)
	v0, v5, v10, v15 = g(v0, v5, v10, v15, 0, 0)
	v1, v6, v11, v12 = g(v1, v6, v11, v12, 0, 0)
	v2, v7, v8, v13 = g(v2, v7, v8, v13, 0, 0)
	v3, v4, v9, v14 = g(v3, v4, v9, v14, 0, 0)

	v0, v4, v8, v12 = g(v0, v4, v8, v12, 0, 0)
	v1, v5, v9, v13 = g(v1, v5, v9, v13, 0, 0)
	v2, v6, v10, v14 = g(v2, v6, v10, v14, 0, 0)
	v3, v7, v11, v15 = g(v3, v7, v11, v15, 0, 0)
	v0, v5, v10, v15 = g(v0, v5, v10, v15, 0, 0)
	v1, v6, v11, v12 = g(v1, v6, v11, v12, 0, 0)
	v2, v7, v8, v13 = g(v2, v7, v8, v13, 0, 0)
	v3, v4, v9, v14 = g(v3, v4, v9, v14, 0, key)

	v0, v4, v8, v12 = g(v0, v4, v8, v12, key, 0)
	v1, v5, v9, v13 = g(v1, v5, v9, v13, 0, 0)
	v2, v6, v10, v14 = g(v2, v6, v10, v14, 0, 0)
	v3, v7, v11, v15 = g(v3, v7, v11, v15, 0, 0)
	v0, v5, v10, v15 = g(v0, v5, v10, v15, 0, 0)
	v1, v6, v11, v12 = g(v1, v6, v11, v12, 0, 0)
	v2, v7, v8, v13 = g(v2, v7, v8, v13, 0, 0)
	v3, v4, v9, v14 = g(v3, v4, v9, v14, 0, 0)

	v0, v4, v8, v12 = g(v0, v4, v8, v12, 0, 0)
	v1, v5, v9, v13 = g(v1, v5, v9, v13, 0, 0)
	v2, v6, v10, v14 = g(v2, v6, v10, v14, 0, 0)
	v3, v7, v11, v15 = g(v3, v7, v11, v15, 0, 0)
	v0, v5, v10, v15 = g(v0, v5, v10, v15, 0, 0)
	v1, v6, v11, v12 = g(v1, v6, v11, v12, key, 0)
	v2, v7, v8, v13 = g(v2, v7, v8, v13, 0, 0)
	v3, v4, v9, v14 = g(v3, v4, v9, v14, 0, 0)

	return p0 ^ v0 ^ v8
}
