#include "textflag.h"

// The initial working vector of Sum64's single compression, one word per
// 8 bytes: v0 is h[0] after the parameter block, v12 carries the 8-byte
// offset counter and v14 the final-block flag.
DATA init<>+0x00(SB)/8, $0x6a09e667f2bdc900
DATA init<>+0x08(SB)/8, $0xbb67ae8584caa73b
DATA init<>+0x10(SB)/8, $0x3c6ef372fe94f82b
DATA init<>+0x18(SB)/8, $0xa54ff53a5f1d36f1
DATA init<>+0x20(SB)/8, $0x510e527fade682d1
DATA init<>+0x28(SB)/8, $0x9b05688c2b3e6c1f
DATA init<>+0x30(SB)/8, $0x1f83d9abfb41bd6b
DATA init<>+0x38(SB)/8, $0x5be0cd19137e2179
DATA init<>+0x40(SB)/8, $0x6a09e667f3bcc908
DATA init<>+0x48(SB)/8, $0xbb67ae8584caa73b
DATA init<>+0x50(SB)/8, $0x3c6ef372fe94f82b
DATA init<>+0x58(SB)/8, $0xa54ff53a5f1d36f1
DATA init<>+0x60(SB)/8, $0x510e527fade682d9
DATA init<>+0x68(SB)/8, $0x9b05688c2b3e6c1f
DATA init<>+0x70(SB)/8, $0xe07c265404be4294
DATA init<>+0x78(SB)/8, $0x5be0cd19137e2179
GLOBL init<>(SB), RODATA|NOPTR, $128

// KEY holds the four keys, one per 64-bit lane; Y0..Y15 hold working words
// v0..v15, so each lane runs its own Sum64.
#define KEY Y16

// G is Sum64's g with both message words zero; GX passes the key as x and
// GY as y. The rotations right by 32, 24, 16 and 63 are VPRORQ.
#define G(a, b, c, d) \
	VPADDQ b, a, a; \
	VPXOR  a, d, d; \
	VPRORQ $32, d, d; \
	VPADDQ d, c, c; \
	VPXOR  c, b, b; \
	VPRORQ $24, b, b; \
	VPADDQ b, a, a; \
	VPXOR  a, d, d; \
	VPRORQ $16, d, d; \
	VPADDQ d, c, c; \
	VPXOR  c, b, b; \
	VPRORQ $63, b, b

#define GX(a, b, c, d, x) \
	VPADDQ b, a, a; \
	VPADDQ x, a, a; \
	VPXOR  a, d, d; \
	VPRORQ $32, d, d; \
	VPADDQ d, c, c; \
	VPXOR  c, b, b; \
	VPRORQ $24, b, b; \
	VPADDQ b, a, a; \
	VPXOR  a, d, d; \
	VPRORQ $16, d, d; \
	VPADDQ d, c, c; \
	VPXOR  c, b, b; \
	VPRORQ $63, b, b

#define GY(a, b, c, d, y) \
	VPADDQ b, a, a; \
	VPXOR  a, d, d; \
	VPRORQ $32, d, d; \
	VPADDQ d, c, c; \
	VPXOR  c, b, b; \
	VPRORQ $24, b, b; \
	VPADDQ b, a, a; \
	VPADDQ y, a, a; \
	VPXOR  a, d, d; \
	VPRORQ $16, d, d; \
	VPADDQ d, c, c; \
	VPXOR  c, b, b; \
	VPRORQ $63, b, b

// func sum64x4(dst, keys *[4]uint64)
//
// The 96 G lines below follow Sum64's 96 g calls one for one: 12 rounds of
// four column and four diagonal steps, with the key wherever sigma names
// message word 0.
TEXT ·sum64x4(SB), NOSPLIT, $0-16
	MOVQ dst+0(FP), AX
	MOVQ keys+8(FP), BX
	VMOVDQU64 (BX), KEY

	VPBROADCASTQ init<>+0x00(SB), Y0
	VPBROADCASTQ init<>+0x08(SB), Y1
	VPBROADCASTQ init<>+0x10(SB), Y2
	VPBROADCASTQ init<>+0x18(SB), Y3
	VPBROADCASTQ init<>+0x20(SB), Y4
	VPBROADCASTQ init<>+0x28(SB), Y5
	VPBROADCASTQ init<>+0x30(SB), Y6
	VPBROADCASTQ init<>+0x38(SB), Y7
	VPBROADCASTQ init<>+0x40(SB), Y8
	VPBROADCASTQ init<>+0x48(SB), Y9
	VPBROADCASTQ init<>+0x50(SB), Y10
	VPBROADCASTQ init<>+0x58(SB), Y11
	VPBROADCASTQ init<>+0x60(SB), Y12
	VPBROADCASTQ init<>+0x68(SB), Y13
	VPBROADCASTQ init<>+0x70(SB), Y14
	VPBROADCASTQ init<>+0x78(SB), Y15

	GX(Y0, Y4, Y8, Y12, KEY)
	G(Y1, Y5, Y9, Y13)
	G(Y2, Y6, Y10, Y14)
	G(Y3, Y7, Y11, Y15)
	G(Y0, Y5, Y10, Y15)
	G(Y1, Y6, Y11, Y12)
	G(Y2, Y7, Y8, Y13)
	G(Y3, Y4, Y9, Y14)

	G(Y0, Y4, Y8, Y12)
	G(Y1, Y5, Y9, Y13)
	G(Y2, Y6, Y10, Y14)
	G(Y3, Y7, Y11, Y15)
	G(Y0, Y5, Y10, Y15)
	GX(Y1, Y6, Y11, Y12, KEY)
	G(Y2, Y7, Y8, Y13)
	G(Y3, Y4, Y9, Y14)

	G(Y0, Y4, Y8, Y12)
	GY(Y1, Y5, Y9, Y13, KEY)
	G(Y2, Y6, Y10, Y14)
	G(Y3, Y7, Y11, Y15)
	G(Y0, Y5, Y10, Y15)
	G(Y1, Y6, Y11, Y12)
	G(Y2, Y7, Y8, Y13)
	G(Y3, Y4, Y9, Y14)

	G(Y0, Y4, Y8, Y12)
	G(Y1, Y5, Y9, Y13)
	G(Y2, Y6, Y10, Y14)
	G(Y3, Y7, Y11, Y15)
	G(Y0, Y5, Y10, Y15)
	G(Y1, Y6, Y11, Y12)
	GY(Y2, Y7, Y8, Y13, KEY)
	G(Y3, Y4, Y9, Y14)

	GY(Y0, Y4, Y8, Y12, KEY)
	G(Y1, Y5, Y9, Y13)
	G(Y2, Y6, Y10, Y14)
	G(Y3, Y7, Y11, Y15)
	G(Y0, Y5, Y10, Y15)
	G(Y1, Y6, Y11, Y12)
	G(Y2, Y7, Y8, Y13)
	G(Y3, Y4, Y9, Y14)

	G(Y0, Y4, Y8, Y12)
	G(Y1, Y5, Y9, Y13)
	GX(Y2, Y6, Y10, Y14, KEY)
	G(Y3, Y7, Y11, Y15)
	G(Y0, Y5, Y10, Y15)
	G(Y1, Y6, Y11, Y12)
	G(Y2, Y7, Y8, Y13)
	G(Y3, Y4, Y9, Y14)

	G(Y0, Y4, Y8, Y12)
	G(Y1, Y5, Y9, Y13)
	G(Y2, Y6, Y10, Y14)
	G(Y3, Y7, Y11, Y15)
	GX(Y0, Y5, Y10, Y15, KEY)
	G(Y1, Y6, Y11, Y12)
	G(Y2, Y7, Y8, Y13)
	G(Y3, Y4, Y9, Y14)

	G(Y0, Y4, Y8, Y12)
	G(Y1, Y5, Y9, Y13)
	G(Y2, Y6, Y10, Y14)
	G(Y3, Y7, Y11, Y15)
	GY(Y0, Y5, Y10, Y15, KEY)
	G(Y1, Y6, Y11, Y12)
	G(Y2, Y7, Y8, Y13)
	G(Y3, Y4, Y9, Y14)

	G(Y0, Y4, Y8, Y12)
	G(Y1, Y5, Y9, Y13)
	G(Y2, Y6, Y10, Y14)
	GX(Y3, Y7, Y11, Y15, KEY)
	G(Y0, Y5, Y10, Y15)
	G(Y1, Y6, Y11, Y12)
	G(Y2, Y7, Y8, Y13)
	G(Y3, Y4, Y9, Y14)

	G(Y0, Y4, Y8, Y12)
	G(Y1, Y5, Y9, Y13)
	G(Y2, Y6, Y10, Y14)
	G(Y3, Y7, Y11, Y15)
	G(Y0, Y5, Y10, Y15)
	G(Y1, Y6, Y11, Y12)
	G(Y2, Y7, Y8, Y13)
	GY(Y3, Y4, Y9, Y14, KEY)

	GX(Y0, Y4, Y8, Y12, KEY)
	G(Y1, Y5, Y9, Y13)
	G(Y2, Y6, Y10, Y14)
	G(Y3, Y7, Y11, Y15)
	G(Y0, Y5, Y10, Y15)
	G(Y1, Y6, Y11, Y12)
	G(Y2, Y7, Y8, Y13)
	G(Y3, Y4, Y9, Y14)

	G(Y0, Y4, Y8, Y12)
	G(Y1, Y5, Y9, Y13)
	G(Y2, Y6, Y10, Y14)
	G(Y3, Y7, Y11, Y15)
	G(Y0, Y5, Y10, Y15)
	GX(Y1, Y6, Y11, Y12, KEY)
	G(Y2, Y7, Y8, Y13)
	G(Y3, Y4, Y9, Y14)

	// The first digest word: h[0] ^ v0 ^ v8, where h[0] is v0's start.
	VPXOR        Y8, Y0, Y0
	VPBROADCASTQ init<>+0x00(SB), Y1
	VPXOR        Y1, Y0, Y0
	VMOVDQU      Y0, (AX)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
