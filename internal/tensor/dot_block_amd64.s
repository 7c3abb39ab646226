// The canonical chain's two 512-bit span bodies: the block body
// dot4x4AVX512 (four rows × four inputs per group) and, after it, the
// one-input body dot4SpanAVX512 (four rows × one x). They share the
// GROUP fold.

// func dot4x4AVX512(d0, d1, d2, d3, w, x0, x1, x2, x3 *float32, idx *int, off, n, groups int)
//
// AVX-512 block span body of the canonical dot-product chain: groups
// groups of four rows of w (rows of n floats) dotted against four
// inputs per call, db[i] bitwise the chain that dotRowGeneric in
// kernel.go defines for row i and input b. Group g is rows
// off+4g..off+4g+3 when idx is nil (a row range: the Go wrapper passes
// off = 0, and the body counts the range's rows in off) and rows
// off+idx[4g..4g+3] otherwise (a kept-row list), as in dot4SpanAVX; the
// two differ only in where the rows are and how the outputs are stored.
// The Go wrapper in dot_amd64.go proves every row and destination in
// bounds. The chain has sixteen lanes, so one ZMM register holds a
// (row, input) pair's whole accumulator — groups [A|B|C|D] — and
// Z16+4b+i is pair (i, b). VMULPS and VADDPS apply lanewise IEEE
// float32 multiply then add — no FMA — so each lane sum is the same
// operation sequence as its Go counterpart. Per 16-float block each row
// and each input is loaded once and used four times: the weight stream
// is read once per four inputs instead of once per input.
//
// The fold runs all sixteen pairs at once and keeps each pair's order of
// operations: a transpose of 128-bit blocks lines up the A, B, C and D
// groups of four pairs for the lanewise (A+B)+(C+D), a transpose within
// the blocks lines up their lanes l0..l3 for the scalar
// ((l0+l1)+l2)+l3, and the serial remainder adds one rounded product per
// element to every pair's sum in one register, whose lane 4b+i is pair
// (i, b): 128-bit block b of it is db's four outputs. Every instruction
// is AVX-512F (no VL, DQ or BW forms): VPXORD clears the accumulators,
// and the only 128-bit ops are the remainder's loads (X4/X5) and the
// stores.

#include "textflag.h"

// GROUP gathers one row's four accumulators a0..a3 (inputs 0..3, each
// [A|B|C|D] in 128-bit blocks) into dst = [l(a0)|l(a1)|l(a2)|l(a3)],
// where l is the lanewise fold (A+B)+(C+D): a 4×4 transpose of 128-bit
// blocks (VSHUFF32X4) puts the four A blocks in one register, the B
// blocks in the next, and so on, and three lanewise adds fold them.
#define GROUP(a0, a1, a2, a3, dst) \
	VSHUFF32X4 $0x44, a1, a0, Z0; \
	VSHUFF32X4 $0xEE, a1, a0, Z1; \
	VSHUFF32X4 $0x44, a3, a2, Z2; \
	VSHUFF32X4 $0xEE, a3, a2, Z3; \
	VSHUFF32X4 $0x88, Z2, Z0, Z4; \
	VSHUFF32X4 $0xDD, Z2, Z0, Z5; \
	VSHUFF32X4 $0x88, Z3, Z1, Z6; \
	VSHUFF32X4 $0xDD, Z3, Z1, Z7; \
	VADDPS     Z5, Z4, Z4; \
	VADDPS     Z7, Z6, Z6; \
	VADDPS     Z6, Z4, dst

// PAIRS multiplies a row's block by each input's (Z0..Z3) and adds the
// products to the row's four accumulators a0..a3 (inputs 0..3).
#define PAIRS(row, a0, a1, a2, a3) \
	VMULPS row, Z0, Z8; \
	VMULPS row, Z1, Z9; \
	VMULPS row, Z2, Z10; \
	VMULPS row, Z3, Z11; \
	VADDPS Z8, a0, a0; \
	VADDPS Z9, a1, a1; \
	VADDPS Z10, a2, a2; \
	VADDPS Z11, a3, a3

// tailIdx spreads [x0 x1 x2 x3] to x_b in every lane of 128-bit block b
// (VPERMPS), the lane order of the folded sums.
DATA tailIdx<>+0(SB)/4, $0
DATA tailIdx<>+4(SB)/4, $0
DATA tailIdx<>+8(SB)/4, $0
DATA tailIdx<>+12(SB)/4, $0
DATA tailIdx<>+16(SB)/4, $1
DATA tailIdx<>+20(SB)/4, $1
DATA tailIdx<>+24(SB)/4, $1
DATA tailIdx<>+28(SB)/4, $1
DATA tailIdx<>+32(SB)/4, $2
DATA tailIdx<>+36(SB)/4, $2
DATA tailIdx<>+40(SB)/4, $2
DATA tailIdx<>+44(SB)/4, $2
DATA tailIdx<>+48(SB)/4, $3
DATA tailIdx<>+52(SB)/4, $3
DATA tailIdx<>+56(SB)/4, $3
DATA tailIdx<>+60(SB)/4, $3
GLOBL tailIdx<>(SB), RODATA|NOPTR, $64

TEXT ·dot4x4AVX512(SB), NOSPLIT, $0-104
	MOVQ x0+40(FP), DI
	MOVQ x1+48(FP), SI
	MOVQ x2+56(FP), DX
	MOVQ x3+64(FP), BX
	MOVQ idx+72(FP), R12     // the group's four row indices, or nil

group:
	// The group's row indices into R8..R11, then their addresses
	// w + row·4n.
	MOVQ  off+80(FP), R8
	TESTQ R12, R12
	JZ    seqrows
	MOVQ  R8, R9
	MOVQ  R8, R10
	MOVQ  R8, R11
	ADDQ  0(R12), R8
	ADDQ  8(R12), R9
	ADDQ  16(R12), R10
	ADDQ  24(R12), R11
	JMP   rows

seqrows:
	LEAQ 1(R8), R9
	LEAQ 2(R8), R10
	LEAQ 3(R8), R11

rows:
	MOVQ   n+88(FP), CX
	MOVQ   CX, AX
	SHLQ   $2, AX            // bytes per row
	IMULQ  AX, R8
	IMULQ  AX, R9
	IMULQ  AX, R10
	IMULQ  AX, R11
	MOVQ   w+32(FP), R13
	ADDQ   R13, R8
	ADDQ   R13, R9
	ADDQ   R13, R10
	ADDQ   R13, R11
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	VPXORD Z20, Z20, Z20
	VPXORD Z21, Z21, Z21
	VPXORD Z22, Z22, Z22
	VPXORD Z23, Z23, Z23
	VPXORD Z24, Z24, Z24
	VPXORD Z25, Z25, Z25
	VPXORD Z26, Z26, Z26
	VPXORD Z27, Z27, Z27
	VPXORD Z28, Z28, Z28
	VPXORD Z29, Z29, Z29
	VPXORD Z30, Z30, Z30
	VPXORD Z31, Z31, Z31
	XORQ   AX, AX            // byte offset into every row and input
	MOVQ   CX, R13
	SHRQ   $4, R13           // R13 = number of full 16-float blocks
	JZ     fold

loop16:
	VMOVUPS (DI)(AX*1), Z0   // input 0
	VMOVUPS (SI)(AX*1), Z1   // input 1
	VMOVUPS (DX)(AX*1), Z2   // input 2
	VMOVUPS (BX)(AX*1), Z3   // input 3
	VMOVUPS (R8)(AX*1), Z4   // row 0
	VMOVUPS (R9)(AX*1), Z5   // row 1
	VMOVUPS (R10)(AX*1), Z6  // row 2
	VMOVUPS (R11)(AX*1), Z7  // row 3
	PAIRS(Z4, Z16, Z20, Z24, Z28)
	PAIRS(Z5, Z17, Z21, Z25, Z29)
	PAIRS(Z6, Z18, Z22, Z26, Z30)
	PAIRS(Z7, Z19, Z23, Z27, Z31)
	ADDQ    $64, AX
	DECQ    R13
	JNZ     loop16

fold:
	// One register per row of [l(input 0)|..|l(input 3)], then a 4×4
	// transpose within every 128-bit block (VUNPCK*) puts lane k of every
	// pair's l in Z8+k, so the scalar fold ((l0+l1)+l2)+l3 of all sixteen
	// pairs is three lanewise adds. Lane 4b+i of Z8 is then pair (i, b).
	GROUP(Z16, Z20, Z24, Z28, Z12)
	GROUP(Z17, Z21, Z25, Z29, Z13)
	GROUP(Z18, Z22, Z26, Z30, Z14)
	GROUP(Z19, Z23, Z27, Z31, Z15)
	VUNPCKLPS Z13, Z12, Z0
	VUNPCKHPS Z13, Z12, Z1
	VUNPCKLPS Z15, Z14, Z2
	VUNPCKHPS Z15, Z14, Z3
	VUNPCKLPD Z2, Z0, Z8     // l0 of every pair
	VUNPCKHPD Z2, Z0, Z9     // l1
	VUNPCKLPD Z3, Z1, Z10    // l2
	VUNPCKHPD Z3, Z1, Z11    // l3
	VADDPS    Z9, Z8, Z8     // l0+l1
	VADDPS    Z10, Z8, Z8    // +l2
	VADDPS    Z11, Z8, Z8    // +l3
	ANDQ      $15, CX
	JZ        store
	VMOVUPS   tailIdx<>(SB), Z6

tail:
	// Serial remainder, s += row[j]*x[j] for every pair at once: lane
	// 4b+i multiplies row i's element by input b's, one rounded multiply
	// and one rounded add per lane.
	VMOVSS     (R8)(AX*1), X4
	VINSERTPS  $0x10, (R9)(AX*1), X4, X4
	VINSERTPS  $0x20, (R10)(AX*1), X4, X4
	VINSERTPS  $0x30, (R11)(AX*1), X4, X4
	VSHUFF32X4 $0, Z4, Z4, Z4     // [r0..r3] in every block
	VMOVSS     (DI)(AX*1), X5
	VINSERTPS  $0x10, (SI)(AX*1), X5, X5
	VINSERTPS  $0x20, (DX)(AX*1), X5, X5
	VINSERTPS  $0x30, (BX)(AX*1), X5, X5
	VPERMPS    Z5, Z6, Z5         // x_b in every lane of block b
	VMULPS     Z5, Z4, Z4
	VADDPS     Z4, Z8, Z8
	ADDQ       $4, AX
	DECQ       CX
	JNZ        tail

store:
	// Lane i of block b of Z8 is row i's dot with input b. The group's
	// row indices into R8..R11 again: a list stores one lane per row
	// index, a range block b to db's four outputs from row off on.
	MOVQ          off+80(FP), R8
	TESTQ         R12, R12
	JZ            seqstore
	MOVQ          R8, R9
	MOVQ          R8, R10
	MOVQ          R8, R11
	ADDQ          0(R12), R8
	ADDQ          8(R12), R9
	ADDQ          16(R12), R10
	ADDQ          24(R12), R11
	MOVQ          d0+0(FP), AX
	VMOVSS        X8, (AX)(R8*4)
	VEXTRACTPS    $1, X8, (AX)(R9*4)
	VEXTRACTPS    $2, X8, (AX)(R10*4)
	VEXTRACTPS    $3, X8, (AX)(R11*4)
	VEXTRACTF32X4 $1, Z8, X9
	MOVQ          d1+8(FP), AX
	VMOVSS        X9, (AX)(R8*4)
	VEXTRACTPS    $1, X9, (AX)(R9*4)
	VEXTRACTPS    $2, X9, (AX)(R10*4)
	VEXTRACTPS    $3, X9, (AX)(R11*4)
	VEXTRACTF32X4 $2, Z8, X9
	MOVQ          d2+16(FP), AX
	VMOVSS        X9, (AX)(R8*4)
	VEXTRACTPS    $1, X9, (AX)(R9*4)
	VEXTRACTPS    $2, X9, (AX)(R10*4)
	VEXTRACTPS    $3, X9, (AX)(R11*4)
	VEXTRACTF32X4 $3, Z8, X9
	MOVQ          d3+24(FP), AX
	VMOVSS        X9, (AX)(R8*4)
	VEXTRACTPS    $1, X9, (AX)(R9*4)
	VEXTRACTPS    $2, X9, (AX)(R10*4)
	VEXTRACTPS    $3, X9, (AX)(R11*4)
	ADDQ          $32, R12
	JMP           next

seqstore:
	MOVQ          d0+0(FP), AX
	VMOVUPS       X8, (AX)(R8*4)
	VEXTRACTF32X4 $1, Z8, X9
	MOVQ          d1+8(FP), AX
	VMOVUPS       X9, (AX)(R8*4)
	VEXTRACTF32X4 $2, Z8, X9
	MOVQ          d2+16(FP), AX
	VMOVUPS       X9, (AX)(R8*4)
	VEXTRACTF32X4 $3, Z8, X9
	MOVQ          d3+24(FP), AX
	VMOVUPS       X9, (AX)(R8*4)
	ADDQ          $4, off+80(FP)

next:
	DECQ groups+96(FP)
	JNZ  group
	VZEROUPPER
	RET

// packIdx gathers lane 0 of every 128-bit block into lanes 0..3
// (VPERMPS): the one-input body's four folded row sums, in row order.
DATA packIdx<>+0(SB)/4, $0
DATA packIdx<>+4(SB)/4, $4
DATA packIdx<>+8(SB)/4, $8
DATA packIdx<>+12(SB)/4, $12
GLOBL packIdx<>(SB), RODATA|NOPTR, $64

// func dot4SpanAVX512(dst, w, x *float32, idx *int, off, n, groups int)
//
// AVX-512 one-input span body of the canonical chain: the contract of
// dot4SpanAVX (dot_quad_amd64.s) at the 512-bit width, and no work when
// groups is 0. Group g is rows 4g..4g+3 when idx is nil and rows
// off+idx[4g..4g+3] otherwise; row i's dot is stored to dst[i]. One ZMM
// register per row holds its whole accumulator [A|B|C|D] (Z16+k is row
// k), so the x block is loaded once per 16 floats and each row's block
// is a memory operand of its VMULPS. The fold is GROUP over the four
// rows — block k of Z12 is row k's lanewise (A+B)+(C+D) — then the
// scalar ((l0+l1)+l2)+l3 within every block at once (lane 1, 2 and 3
// of each block broadcast by VSHUFPS and added in turn), after which
// VPERMPS packs the four sums into X12, lane k row k's. The serial
// remainder adds one rounded product per element to all four sums in
// X12 (row k's element in lane k, x broadcast), and a row range stores
// X12 whole.
TEXT ·dot4SpanAVX512(SB), NOSPLIT, $0-56
	MOVQ  dst+0(FP), R12
	MOVQ  w+8(FP), R13
	MOVQ  x+16(FP), DI
	MOVQ  idx+24(FP), SI
	MOVQ  groups+48(FP), R14
	TESTQ R14, R14
	JZ    done
	XORQ  DX, DX             // first row of a contiguous group
	VMOVUPS packIdx<>(SB), Z15

group:
	// The group's row indices into R8..R11, then their addresses.
	TESTQ SI, SI
	JZ    seqrows
	MOVQ  0(SI), R8
	MOVQ  8(SI), R9
	MOVQ  16(SI), R10
	MOVQ  24(SI), R11
	MOVQ  off+32(FP), AX
	ADDQ  AX, R8
	ADDQ  AX, R9
	ADDQ  AX, R10
	ADDQ  AX, R11
	JMP   rows

seqrows:
	MOVQ DX, R8
	LEAQ 1(DX), R9
	LEAQ 2(DX), R10
	LEAQ 3(DX), R11

rows:
	MOVQ   n+40(FP), CX
	MOVQ   CX, AX
	SHLQ   $2, AX            // bytes per row
	IMULQ  AX, R8
	IMULQ  AX, R9
	IMULQ  AX, R10
	IMULQ  AX, R11
	ADDQ   R13, R8
	ADDQ   R13, R9
	ADDQ   R13, R10
	ADDQ   R13, R11
	VPXORD Z16, Z16, Z16
	VPXORD Z17, Z17, Z17
	VPXORD Z18, Z18, Z18
	VPXORD Z19, Z19, Z19
	XORQ   AX, AX            // byte offset into every row and x
	MOVQ   CX, BX
	SHRQ   $4, BX            // BX = number of full 16-float blocks
	JZ     fold

loop16:
	VMOVUPS (DI)(AX*1), Z0
	VMULPS  (R8)(AX*1), Z0, Z8
	VMULPS  (R9)(AX*1), Z0, Z9
	VMULPS  (R10)(AX*1), Z0, Z10
	VMULPS  (R11)(AX*1), Z0, Z11
	VADDPS  Z8, Z16, Z16
	VADDPS  Z9, Z17, Z17
	VADDPS  Z10, Z18, Z18
	VADDPS  Z11, Z19, Z19
	ADDQ    $64, AX
	DECQ    BX
	JNZ     loop16

fold:
	GROUP(Z16, Z17, Z18, Z19, Z12)
	VSHUFPS $0x55, Z12, Z12, Z8  // l1 of every row
	VSHUFPS $0xAA, Z12, Z12, Z9  // l2
	VSHUFPS $0xFF, Z12, Z12, Z10 // l3
	VADDPS  Z8, Z12, Z12         // l0+l1
	VADDPS  Z9, Z12, Z12         // +l2
	VADDPS  Z10, Z12, Z12        // +l3
	VPERMPS Z12, Z15, Z12        // lane k: row k's sum
	ANDQ    $15, CX
	JZ      store

tail:
	// Serial remainder, s += row[j]*x[j] for each row: one rounded
	// multiply, then one rounded add, lane k row k's.
	VMOVSS       (R8)(AX*1), X4
	VINSERTPS    $0x10, (R9)(AX*1), X4, X4
	VINSERTPS    $0x20, (R10)(AX*1), X4, X4
	VINSERTPS    $0x30, (R11)(AX*1), X4, X4
	VBROADCASTSS (DI)(AX*1), X5
	VMULPS       X5, X4, X4
	VADDPS       X4, X12, X12
	ADDQ         $4, AX
	DECQ         CX
	JNZ          tail

store:
	// dst[i] for the group's rows i, read again off the list or the
	// contiguous row counter.
	TESTQ      SI, SI
	JZ         seqstore
	MOVQ       off+32(FP), AX
	MOVQ       0(SI), R8
	ADDQ       AX, R8
	VMOVSS     X12, (R12)(R8*4)
	MOVQ       8(SI), R8
	ADDQ       AX, R8
	VEXTRACTPS $1, X12, (R12)(R8*4)
	MOVQ       16(SI), R8
	ADDQ       AX, R8
	VEXTRACTPS $2, X12, (R12)(R8*4)
	MOVQ       24(SI), R8
	ADDQ       AX, R8
	VEXTRACTPS $3, X12, (R12)(R8*4)
	ADDQ       $32, SI
	JMP        next

seqstore:
	VMOVUPS X12, (R12)(DX*4)
	ADDQ    $4, DX

next:
	DECQ R14
	JNZ  group

done:
	VZEROUPPER
	RET
