// The element-wise bodies of a recurrent step (elem.go), sixteen
// float32 rows per step under a 16-bit k-mask. A mask word names the
// kept rows of one block of sixteen; a body loads a block's row-space
// vectors under it (zeroing the other lanes, and never touching their
// memory), packs a result into the compact vectors with VCOMPRESSPS (in
// a register, then a store of the word's population count of lanes) or
// spreads a packed vector back with VEXPANDPS (a load of that many). Each
// element is the twin's float32 operations in the twin's order: VADDPS,
// VSUBPS and VMULPS, no FMA. A packed store lands at k ≤ the block's
// first row after the block was read, so a packed vector may share its
// first element with a row-space one. A body that walks packed vectors
// takes their length and stops, returning false, before a block whose
// kept rows would reach past it, or at the end if the words named fewer
// rows than that: the words, not the list, bound those loads and stores.
// Every instruction is AVX-512F but POPCNT.

#include "textflag.h"

// The row indices 0..15 as int64, and the step between blocks.
DATA elemRows<>+0(SB)/8, $0
DATA elemRows<>+8(SB)/8, $1
DATA elemRows<>+16(SB)/8, $2
DATA elemRows<>+24(SB)/8, $3
DATA elemRows<>+32(SB)/8, $4
DATA elemRows<>+40(SB)/8, $5
DATA elemRows<>+48(SB)/8, $6
DATA elemRows<>+56(SB)/8, $7
DATA elemRows<>+64(SB)/8, $8
DATA elemRows<>+72(SB)/8, $9
DATA elemRows<>+80(SB)/8, $10
DATA elemRows<>+88(SB)/8, $11
DATA elemRows<>+96(SB)/8, $12
DATA elemRows<>+104(SB)/8, $13
DATA elemRows<>+112(SB)/8, $14
DATA elemRows<>+120(SB)/8, $15
GLOBL elemRows<>(SB), RODATA|NOPTR, $128

DATA elemSixteen<>+0(SB)/8, $16
GLOBL elemSixteen<>(SB), RODATA|NOPTR, $8

DATA elemOne<>+0(SB)/4, $0x3f800000
GLOBL elemOne<>(SB), RODATA|NOPTR, $4

// PREFIX sets K to the low CX bits (CX ≤ 16), through R.
#define PREFIX(R, K) \
	MOVL  $1, R; \
	SHLL  CX, R; \
	DECL  R; \
	KMOVW R, K

// PACKED stores the first CX lanes of V at (P)(R11*4) and advances R11
// past them (clobbers R13, K7).
#define PACKED(V, P) \
	PREFIX(R13, K7); \
	VMOVUPS V, K7, (P)(R11*4); \
	ADDQ    CX, R11

// COUNT sets CX to the block's kept rows, popcount(R8), and jumps to
// fault if they would take R11 past the packed length in R15 (clobbers
// R14).
#define COUNT(fault) \
	POPCNTL R8, CX; \
	LEAQ    (R11)(CX*1), R14; \
	CMPQ    R14, R15; \
	JGT     fault

// DONE stores whether the walk packed exactly R15 rows.
#define DONE(ret) \
	CMPQ  R11, R15; \
	SETEQ ret; \
	VZEROUPPER; \
	RET

// ROWS sets K6 to the rows of the block at SI below R12: all sixteen
// but in the last, partial block (clobbers CX, R13).
#define ROWS \
	MOVQ    R12, CX; \
	SUBQ    SI, CX; \
	MOVL    $16, R13; \
	CMPQ    CX, R13; \
	CMOVQGT R13, CX; \
	PREFIX(R13, K6)

// func sum3x16(dst, a, b, c *float32, n int)
TEXT ·sum3x16(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ c+24(FP), DX
	MOVQ n+32(FP), R12
	XORQ SI, SI
	LEAQ -16(R12), R9

sumBlock:
	CMPQ    SI, R9
	JGT     sumTail
	VMOVUPS (AX)(SI*4), Z0
	VADDPS  (BX)(SI*4), Z0, Z0
	VADDPS  (DX)(SI*4), Z0, Z0
	VMOVUPS Z0, (DI)(SI*4)
	ADDQ    $16, SI
	JMP     sumBlock

sumTail:
	MOVQ      R12, CX
	SUBQ      SI, CX
	JZ        sumDone
	PREFIX(R8, K1)
	VMOVUPS.Z (AX)(SI*4), K1, Z0
	VMOVUPS.Z (BX)(SI*4), K1, Z1
	VADDPS    Z1, Z0, Z0
	VMOVUPS.Z (DX)(SI*4), K1, Z1
	VADDPS    Z1, Z0, Z0
	VMOVUPS   Z0, K1, (DI)(SI*4)

sumDone:
	VZEROUPPER
	RET

// func gatherSum3x16(dst, a, b, c *float32, words *uint16, nw, n int) bool
TEXT ·gatherSum3x16(SB), NOSPLIT, $0-57
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ c+24(FP), DX
	MOVQ words+32(FP), R9
	MOVQ nw+40(FP), R10
	MOVQ n+48(FP), R15
	XORQ SI, SI
	XORQ R11, R11

gatherBlock:
	TESTQ       R10, R10
	JZ          gatherDone
	MOVWLZX     (R9), R8
	TESTL       R8, R8
	JZ          gatherNext
	COUNT(gatherFault)
	KMOVW       R8, K1
	VMOVUPS.Z   (AX)(SI*4), K1, Z0
	VMOVUPS.Z   (BX)(SI*4), K1, Z1
	VADDPS      Z1, Z0, Z0
	VMOVUPS.Z   (DX)(SI*4), K1, Z1
	VADDPS      Z1, Z0, Z0
	VCOMPRESSPS Z0, K1, Z0
	PACKED(Z0, DI)

gatherNext:
	ADDQ $16, SI
	ADDQ $2, R9
	DECQ R10
	JMP  gatherBlock

gatherFault:
	MOVQ $-1, R11

gatherDone:
	DONE(ret+56(FP))

// func cellState16(s, f, i, u *float32, words *uint16, nw, rows, n int) bool
//
// c = f·s + i·u per kept lane; the other lanes load as zeros, so c is
// +0 there, and the block's rows of s take c whole.
TEXT ·cellState16(SB), NOSPLIT, $0-65
	MOVQ s+0(FP), DI
	MOVQ f+8(FP), AX
	MOVQ i+16(FP), BX
	MOVQ u+24(FP), DX
	MOVQ words+32(FP), R9
	MOVQ nw+40(FP), R10
	MOVQ rows+48(FP), R12
	MOVQ n+56(FP), R15
	XORQ SI, SI
	XORQ R11, R11

cellBlock:
	TESTQ       R10, R10
	JZ          cellPack
	MOVWLZX     (R9), R8
	KMOVW       R8, K1
	ROWS
	COUNT(cellFault)
	VEXPANDPS.Z (AX)(R11*4), K1, Z0
	VMOVUPS.Z   (DI)(SI*4), K1, Z1
	VMULPS      Z1, Z0, Z0
	VEXPANDPS.Z (BX)(R11*4), K1, Z1
	VEXPANDPS.Z (DX)(R11*4), K1, Z2
	VMULPS      Z2, Z1, Z1
	VADDPS      Z1, Z0, Z0
	VMOVUPS     Z0, K6, (DI)(SI*4)
	ADDQ        CX, R11
	ADDQ        $16, SI
	ADDQ        $2, R9
	DECQ        R10
	JMP         cellBlock

	// The second pass packs c from s into f. Packing it in the first
	// would store each block's c over the bytes the next block's f load
	// reads, and that load waits for the store.
cellPack:
	CMPQ    R11, R15
	JNE     cellDone
	MOVQ    words+32(FP), R9
	MOVQ    nw+40(FP), R10
	XORQ    SI, SI
	XORQ    R11, R11

packBlock:
	TESTQ       R10, R10
	JZ          cellDone
	MOVWLZX     (R9), R8
	KMOVW       R8, K1
	POPCNTL     R8, CX
	VMOVUPS.Z   (DI)(SI*4), K1, Z0
	VCOMPRESSPS Z0, K1, Z0
	PACKED(Z0, AX)
	ADDQ        $16, SI
	ADDQ        $2, R9
	DECQ        R10
	JMP         packBlock

cellFault:
	MOVQ $-1, R11

cellDone:
	DONE(ret+64(FP))

// func scatterMul16(dst, o, v *float32, words *uint16, nw, rows, n int) bool
TEXT ·scatterMul16(SB), NOSPLIT, $0-57
	MOVQ dst+0(FP), DI
	MOVQ o+8(FP), AX
	MOVQ v+16(FP), BX
	MOVQ words+24(FP), R9
	MOVQ nw+32(FP), R10
	MOVQ rows+40(FP), R12
	MOVQ n+48(FP), R15
	XORQ SI, SI
	XORQ R11, R11

scatterBlock:
	TESTQ       R10, R10
	JZ          scatterDone
	MOVWLZX     (R9), R8
	KMOVW       R8, K1
	ROWS
	COUNT(scatterFault)
	VMOVUPS.Z   (AX)(SI*4), K1, Z0
	VEXPANDPS.Z (BX)(R11*4), K1, Z1
	VMULPS      Z1, Z0, Z0
	VMOVUPS     Z0, K6, (DI)(SI*4)
	ADDQ        CX, R11
	ADDQ        $16, SI
	ADDQ        $2, R9
	DECQ        R10
	JMP         scatterBlock

scatterFault:
	MOVQ $-1, R11

scatterDone:
	DONE(ret+56(FP))

// func blend16(h, z, u *float32, words *uint16, nw, n int) bool
TEXT ·blend16(SB), NOSPLIT, $0-49
	MOVQ         h+0(FP), DI
	MOVQ         z+8(FP), AX
	MOVQ         u+16(FP), BX
	MOVQ         words+24(FP), R9
	MOVQ         nw+32(FP), R10
	MOVQ         n+40(FP), R15
	XORQ         SI, SI
	XORQ         R11, R11
	VBROADCASTSS elemOne<>(SB), Z3

blendBlock:
	TESTQ       R10, R10
	JZ          blendDone
	MOVWLZX     (R9), R8
	TESTL       R8, R8
	JZ          blendNext
	COUNT(blendFault)
	KMOVW       R8, K1
	VMOVUPS.Z   (AX)(SI*4), K1, Z0
	VSUBPS      Z0, Z3, Z1
	VMOVUPS.Z   (DI)(SI*4), K1, Z2
	VMULPS      Z2, Z1, Z1
	VEXPANDPS.Z (BX)(R11*4), K1, Z2
	VMULPS      Z2, Z0, Z0
	VADDPS      Z0, Z1, Z1
	VMOVUPS     Z1, K1, (DI)(SI*4)
	ADDQ        CX, R11

blendNext:
	ADDQ $16, SI
	ADDQ $2, R9
	DECQ R10
	JMP  blendBlock

blendFault:
	MOVQ $-1, R11

blendDone:
	DONE(ret+48(FP))

// func keepMask16(words *uint16, o *float32, n int, a float32)
//
// A lane is kept where o >= a, ordered (predicate GE_OQ): a NaN is not.
TEXT ·keepMask16(SB), NOSPLIT, $0-28
	MOVQ         words+0(FP), DI
	MOVQ         o+8(FP), AX
	MOVQ         n+16(FP), R12
	VBROADCASTSS a+24(FP), Z1
	XORQ         SI, SI
	LEAQ         -16(R12), R9

keepBlock:
	CMPQ    SI, R9
	JGT     keepTail
	VMOVUPS (AX)(SI*4), Z0
	VCMPPS  $0x1d, Z1, Z0, K1
	KMOVW   K1, R8
	ORW     R8, (DI)
	ADDQ    $16, SI
	ADDQ    $2, DI
	JMP     keepBlock

keepTail:
	MOVQ      R12, CX
	SUBQ      SI, CX
	JZ        keepDone
	PREFIX(R8, K2)
	VMOVUPS.Z (AX)(SI*4), K2, Z0
	VCMPPS    $0x1d, Z1, Z0, K2, K1
	KMOVW     K1, R8
	ORW       R8, (DI)

keepDone:
	VZEROUPPER
	RET

// func listRows16(dst *int, words *uint16, nw int) int
//
// Each word's low and high bytes compress the block's row indices, eight
// int64 lanes at a time, with VPCOMPRESSQ.
TEXT ·listRows16(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         words+8(FP), R9
	MOVQ         nw+16(FP), R10
	VMOVDQU64    elemRows<>+0(SB), Z2
	VMOVDQU64    elemRows<>+64(SB), Z3
	VPBROADCASTQ elemSixteen<>(SB), Z4
	XORQ         R11, R11

listBlock:
	TESTQ       R10, R10
	JZ          listDone
	MOVWLZX     (R9), R8
	KMOVW       R8, K1
	KSHIFTRW    $8, K1, K2
	VPCOMPRESSQ Z2, K1, Z0
	MOVL        R8, CX
	ANDL        $0xff, CX
	POPCNTL     CX, CX
	PREFIX(R13, K7)
	VMOVDQU64   Z0, K7, (DI)(R11*8)
	ADDQ        CX, R11
	VPCOMPRESSQ Z3, K2, Z0
	SHRL        $8, R8
	POPCNTL     R8, CX
	PREFIX(R13, K7)
	VMOVDQU64   Z0, K7, (DI)(R11*8)
	ADDQ        CX, R11
	VPADDQ      Z4, Z2, Z2
	VPADDQ      Z4, Z3, Z3
	ADDQ        $2, R9
	DECQ        R10
	JMP         listBlock

listDone:
	MOVQ R11, ret+24(FP)
	VZEROUPPER
	RET

// func ascending8(list *int, n int) bool
//
// Compares list[i] > list[i-1] for i = 1..n-1, eight at a time, the
// last group under a mask.
TEXT ·ascending8(SB), NOSPLIT, $0-17
	MOVQ list+0(FP), DI
	MOVQ n+8(FP), R12
	MOVQ $1, SI
	LEAQ -8(R12), R9

ascBlock:
	CMPQ      SI, R9
	JGT       ascTail
	VMOVDQU64 (DI)(SI*8), Z0
	VMOVDQU64 -8(DI)(SI*8), Z1
	VPCMPQ    $6, Z1, Z0, K1
	KMOVW     K1, R8
	CMPL      R8, $0xff
	JNE       ascNo
	ADDQ      $8, SI
	JMP       ascBlock

ascTail:
	MOVQ        R12, CX
	SUBQ        SI, CX
	JZ          ascYes
	PREFIX(R13, K2)
	VMOVDQU64.Z (DI)(SI*8), K2, Z0
	VMOVDQU64.Z -8(DI)(SI*8), K2, Z1
	VPCMPQ      $6, Z1, Z0, K2, K1
	KMOVW       K1, R8
	CMPL        R8, R13
	JNE         ascNo

ascYes:
	MOVB $1, ret+16(FP)
	VZEROUPPER
	RET

ascNo:
	MOVB $0, ret+16(FP)
	VZEROUPPER
	RET
