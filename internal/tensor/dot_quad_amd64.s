// func dot4SpanAVX(dst, w, x *float32, idx *int, off, n, groups int)
//
// AVX four-row span body of the canonical dot-product chain: groups
// groups of four rows of w (rows of n floats) dotted against one x per
// call, each output bitwise the chain that dotRowGeneric in kernel.go
// defines and dotSSE carries one row at a time. Group g is rows
// 4g..4g+3 when idx is nil, and rows off+idx[4g..4g+3] otherwise (a
// kept-row list); row i's dot is stored to dst[i], and groups 0 does
// nothing. The Go wrappers in dot_amd64.go prove every row and
// destination in bounds. On a CPU with AVX-512 the canonical chain binds
// dot4SpanAVX512 (dot_block_amd64.s) instead, the same contract at the
// 512-bit width.
//
// Per row, YMM register 2k holds the chain's groups [A|B] (lanes 0..7)
// and 2k+1 holds [C|D] (lanes 8..15): VMULPS and VADDPS apply lanewise
// IEEE float32 multiply then add — no FMA — so each lane sum is the
// same operation sequence as its Go counterpart, just two groups per
// register. The fold is VEXTRACTF128 plus lanewise (A+B)+(C+D), then
// scalar ((l0+l1)+l2)+l3, then the serial scalar remainder, exactly as
// in dotSSE. The x block is loaded once per 16 floats and reused by all
// four rows, and the four rows keep eight independent accumulator
// chains in flight where dotSSE has four. VZEROUPPER runs once each
// group's last 256-bit instruction has retired, before the scalar fold.

#include "textflag.h"

TEXT ·dot4SpanAVX(SB), NOSPLIT, $0-56
	CMPQ groups+48(FP), $0
	JEQ  done
	MOVQ dst+0(FP), R12
	MOVQ w+8(FP), R13
	MOVQ x+16(FP), DI
	MOVQ idx+24(FP), SI
	XORQ DX, DX              // first row of a contiguous group

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
	VXORPS Y0, Y0, Y0        // row 0 [A|B]
	VXORPS Y1, Y1, Y1        // row 0 [C|D]
	VXORPS Y2, Y2, Y2        // row 1 [A|B]
	VXORPS Y3, Y3, Y3        // row 1 [C|D]
	VXORPS Y4, Y4, Y4        // row 2 [A|B]
	VXORPS Y5, Y5, Y5        // row 2 [C|D]
	VXORPS Y6, Y6, Y6        // row 3 [A|B]
	VXORPS Y7, Y7, Y7        // row 3 [C|D]
	XORQ   AX, AX            // byte offset into every row and x
	MOVQ   CX, BX
	SHRQ   $4, BX            // BX = number of full 16-float blocks
	JZ     fold

loop16:
	VMOVUPS (DI)(AX*1), Y8   // x lanes 0..7
	VMOVUPS 32(DI)(AX*1), Y9 // x lanes 8..15
	VMULPS  (R8)(AX*1), Y8, Y10
	VADDPS  Y10, Y0, Y0
	VMULPS  32(R8)(AX*1), Y9, Y11
	VADDPS  Y11, Y1, Y1
	VMULPS  (R9)(AX*1), Y8, Y12
	VADDPS  Y12, Y2, Y2
	VMULPS  32(R9)(AX*1), Y9, Y13
	VADDPS  Y13, Y3, Y3
	VMULPS  (R10)(AX*1), Y8, Y10
	VADDPS  Y10, Y4, Y4
	VMULPS  32(R10)(AX*1), Y9, Y11
	VADDPS  Y11, Y5, Y5
	VMULPS  (R11)(AX*1), Y8, Y12
	VADDPS  Y12, Y6, Y6
	VMULPS  32(R11)(AX*1), Y9, Y13
	VADDPS  Y13, Y7, Y7
	ADDQ    $64, AX
	DECQ    BX
	JNZ     loop16

fold:
	// Lanewise (A+B) + (C+D) per row: the high half of [A|B] is B, of
	// [C|D] is D.
	VEXTRACTF128 $1, Y0, X8
	VEXTRACTF128 $1, Y1, X9
	VADDPS       X8, X0, X0  // A+B
	VADDPS       X9, X1, X1  // C+D
	VADDPS       X1, X0, X0  // (A+B)+(C+D)
	VEXTRACTF128 $1, Y2, X8
	VEXTRACTF128 $1, Y3, X9
	VADDPS       X8, X2, X2
	VADDPS       X9, X3, X3
	VADDPS       X3, X2, X2
	VEXTRACTF128 $1, Y4, X8
	VEXTRACTF128 $1, Y5, X9
	VADDPS       X8, X4, X4
	VADDPS       X9, X5, X5
	VADDPS       X5, X4, X4
	VEXTRACTF128 $1, Y6, X8
	VEXTRACTF128 $1, Y7, X9
	VADDPS       X8, X6, X6
	VADDPS       X9, X7, X7
	VADDPS       X7, X6, X6
	VZEROUPPER

	// Scalar ((l0+l1)+l2)+l3 per row, into the low lane of X0/X2/X4/X6.
	VSHUFPS $0x55, X0, X0, X8  // broadcast lane 1
	VSHUFPS $0xAA, X0, X0, X9  // broadcast lane 2
	VSHUFPS $0xFF, X0, X0, X10 // broadcast lane 3
	VADDSS  X8, X0, X0         // l0+l1
	VADDSS  X9, X0, X0         // +l2
	VADDSS  X10, X0, X0        // +l3
	VSHUFPS $0x55, X2, X2, X8
	VSHUFPS $0xAA, X2, X2, X9
	VSHUFPS $0xFF, X2, X2, X10
	VADDSS  X8, X2, X2
	VADDSS  X9, X2, X2
	VADDSS  X10, X2, X2
	VSHUFPS $0x55, X4, X4, X8
	VSHUFPS $0xAA, X4, X4, X9
	VSHUFPS $0xFF, X4, X4, X10
	VADDSS  X8, X4, X4
	VADDSS  X9, X4, X4
	VADDSS  X10, X4, X4
	VSHUFPS $0x55, X6, X6, X8
	VSHUFPS $0xAA, X6, X6, X9
	VSHUFPS $0xFF, X6, X6, X10
	VADDSS  X8, X6, X6
	VADDSS  X9, X6, X6
	VADDSS  X10, X6, X6
	ANDQ    $15, CX
	JZ      store

tail:
	// Serial remainder, s += row[j]*x[j] for each row: one rounded
	// multiply, then one rounded add.
	VMOVSS (DI)(AX*1), X8
	VMULSS (R8)(AX*1), X8, X9
	VADDSS X9, X0, X0
	VMULSS (R9)(AX*1), X8, X9
	VADDSS X9, X2, X2
	VMULSS (R10)(AX*1), X8, X9
	VADDSS X9, X4, X4
	VMULSS (R11)(AX*1), X8, X9
	VADDSS X9, X6, X6
	ADDQ   $4, AX
	DECQ   CX
	JNZ    tail

store:
	// dst[i] for the group's rows i, read again off the list or the
	// contiguous row counter.
	TESTQ  SI, SI
	JZ     seqstore
	MOVQ   off+32(FP), AX
	MOVQ   0(SI), R8
	ADDQ   AX, R8
	VMOVSS X0, (R12)(R8*4)
	MOVQ   8(SI), R8
	ADDQ   AX, R8
	VMOVSS X2, (R12)(R8*4)
	MOVQ   16(SI), R8
	ADDQ   AX, R8
	VMOVSS X4, (R12)(R8*4)
	MOVQ   24(SI), R8
	ADDQ   AX, R8
	VMOVSS X6, (R12)(R8*4)
	ADDQ   $32, SI
	JMP    next

seqstore:
	VMOVSS X0, (R12)(DX*4)
	VMOVSS X2, 4(R12)(DX*4)
	VMOVSS X4, 8(R12)(DX*4)
	VMOVSS X6, 12(R12)(DX*4)
	ADDQ   $4, DX

next:
	DECQ groups+48(FP)
	JNZ  group

done:
	RET
