// Package blake2b implements the BLAKE2b hash function of RFC 7693,
// unkeyed, with selectable digest size up to 64 bytes.
//
// The paper's §7.3 collision-rate baseline is "a hash table that has a load
// factor of 0.6 and uses the state-of-the-art hash function Blake2"; the
// repository is restricted to the standard library, so the algorithm is
// implemented here from the RFC. Only the piece the baseline needs is
// provided: Sum64 (and its four-lane Sum64s) for table indexing. The
// general digest Sum, which the tests check against the RFC's vectors and
// Sum64 against, lives in reference_test.go.
package blake2b

import "math/bits"

// iv is the BLAKE2b initialization vector (RFC 7693 §2.6).
var iv = [8]uint64{
	0x6a09e667f3bcc908, 0xbb67ae8584caa73b,
	0x3c6ef372fe94f82b, 0xa54ff53a5f1d36f1,
	0x510e527fade682d1, 0x9b05688c2b3e6c1f,
	0x1f83d9abfb41bd6b, 0x5be0cd19137e2179,
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

// Sum64 hashes a 64-bit key and returns the first 8 digest bytes as a
// uint64, the form the hashed page tables (ecpt, revelator, hashpt) use for
// slot selection. It equals the little-endian first word of the reference
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
