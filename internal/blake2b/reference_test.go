package blake2b

import "encoding/binary"

// The general unkeyed BLAKE2b digest of RFC 7693: the reference the known
// answer tests pin and Sum64 and Sum64s are checked against.

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
