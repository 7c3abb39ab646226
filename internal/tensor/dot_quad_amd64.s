// func dot4AVX(r0, r1, r2, r3, x *float32, n int) (s0, s1, s2, s3 float32)
//
// AVX four-row body of the canonical dot-product chain: four rows
// dotted against one x per call, each output bitwise the chain that
// dotRowGeneric in kernel.go defines and dotSSE carries one row at a
// time. Per row, YMM register 2k holds the chain's groups [A|B] (lanes
// 0..7) and 2k+1 holds [C|D] (lanes 8..15): VMULPS and VADDPS apply
// lanewise IEEE float32 multiply then add — no FMA — so each lane sum
// is the same operation sequence as its Go counterpart, just two
// groups per register. The fold is VEXTRACTF128 plus lanewise
// (A+B)+(C+D), then scalar ((l0+l1)+l2)+l3, then the serial scalar
// remainder, exactly as in dotSSE. The x block is loaded once per 16
// floats and reused by all four rows, and the four rows keep eight
// independent accumulator chains in flight where dotSSE has four.
// VZEROUPPER runs once the last 256-bit instruction has retired, before
// the scalar fold.

#include "textflag.h"

TEXT ·dot4AVX(SB), NOSPLIT, $0-64
	MOVQ   r0+0(FP), R8
	MOVQ   r1+8(FP), R9
	MOVQ   r2+16(FP), R10
	MOVQ   r3+24(FP), R11
	MOVQ   x+32(FP), DI
	MOVQ   n+40(FP), CX
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
	JZ      done

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

done:
	VMOVSS X0, s0+48(FP)
	VMOVSS X2, s1+52(FP)
	VMOVSS X4, s2+56(FP)
	VMOVSS X6, s3+60(FP)
	RET
