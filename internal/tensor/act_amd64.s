// func sigmoid4(dst, x *float32, n int) int
// func tanh4(dst, x *float32, n int) int
//
// AVX2+FMA bodies of SigmoidVec and TanhVec over four float64 lanes per
// group of four float32 inputs. Both share one exp: Cody-Waite
// reduction a = k·ln2 + r with k = round(a·log2e) (the 0x1.8p52 shift
// leaves k in the low mantissa bits, so 2^k is (bits + 1023) << 52) and
// r reduced by ln2 split in two halves under FMA, then
// m = e^r - 1 = r·(1 + r/2! + … + r^10/11!) by Horner, so that
// e^a = 2^k·(1 + m) and e^a - 1 = 2^k·m + (2^k - 1) are each one FMA.
// The truncated series and the rounding of the reduction keep m within
// a relative 2^-45 of e^r - 1 for |r| ≤ ln2/2, and e^a within 2^-46.
//
//	sigmoid: 1 / (1 + e^{-x})            the scalar Sigmoid's formula
//	tanh:    ±(e^{2|x|} - 1) / (e^{2|x|} + 1)
//
// (tanh is the expm1 form, not 1 - 2/(e^{2|x|}+1), so its relative
// error stays at the exp's for small |x| instead of growing as 1/|x|.)
//
// The rounding guard: a lane is kept only when x is inside the fast
// range (sigmoid |x| ≤ 87, tanh 2^-125 ≤ |x| ≤ 44 — the float32 result
// is normal, the exp neither overflows nor underflows, NaN compares
// false) and the float64 result's low 29 mantissa bits — the ones
// VCVTPD2PS drops — lie more than 2^12 float64 ulps from the float32
// rounding midpoint 1<<28. The body's error (≲ 2^8 ulps) plus the
// scalar reference's (a few ulps) is far inside that margin, so a kept
// lane rounds to the same float32 as the reference. The exhaustive
// sweep in activation_amd64_test.go checks it on all 2^32 inputs.
//
// A group with any lane rejected stops the loop before that group is
// stored: the return value is the count of elements written (a multiple
// of four), and dst/x at that offset are untouched, so the caller can
// recompute the group from the original inputs even when dst aliases x.
// n must be a multiple of four.

#include "textflag.h"

// QUAD lays a float64/int64 constant out four times: a 256-bit operand.
#define QUAD(name, v) DATA name+0(SB)/8, v; DATA name+8(SB)/8, v; DATA name+16(SB)/8, v; DATA name+24(SB)/8, v; GLOBL name(SB), RODATA|NOPTR, $32

QUAD(actAbs<>, $0x7fffffffffffffff)
QUAD(actSign<>, $0x8000000000000000)
QUAD(actOne<>, $0x3ff0000000000000)    // 1
QUAD(actTwo<>, $0x4000000000000000)    // 2
QUAD(actHalf<>, $0x3fe0000000000000)   // 1/2!
QUAD(actLog2e<>, $0x3ff71547652b82fe)  // log2(e)
QUAD(actShift<>, $0x4338000000000000)  // 0x1.8p52
QUAD(actLn2Hi<>, $0x3fe62e42fefa39ef)  // ln2 rounded to float64
QUAD(actLn2Lo<>, $0x3c7abc9e3b39803f)  // ln2 - actLn2Hi
QUAD(actBias<>, $1023)
QUAD(actLow29<>, $0x1fffffff)
QUAD(actMidLo<>, $0x0fffefff)          // 1<<28 - 1<<12 - 1
QUAD(actMidHi<>, $0x10001000)          // 1<<28 + 1<<12
QUAD(actSigLim<>, $0x4055c00000000000) // 87
QUAD(actTanhHi<>, $0x4046000000000000) // 44
QUAD(actTanhLo<>, $0x3820000000000000) // 2^-125
QUAD(actC3<>, $0x3fc5555555555555)     // 1/3!
QUAD(actC4<>, $0x3fa5555555555555)     // 1/4!
QUAD(actC5<>, $0x3f81111111111111)     // 1/5!
QUAD(actC6<>, $0x3f56c16c16c16c17)     // 1/6!
QUAD(actC7<>, $0x3f2a01a01a01a01a)     // 1/7!
QUAD(actC8<>, $0x3efa01a01a01a01a)     // 1/8!
QUAD(actC9<>, $0x3ec71de3a556c734)     // 1/9!
QUAD(actC10<>, $0x3e927e4fb7789f5c)    // 1/10!
QUAD(actC11<>, $0x3e5ae64567f544e4)    // 1/11!

// CONSTS loads the per-iteration constants: Y8 = 1, Y9 = log2e,
// Y10 = shift, Y11 = ln2hi, Y12 = ln2lo, Y13 = low-29 mask, Y14/Y15 =
// the guard's midpoint window.
#define CONSTS \
	VMOVUPD actOne<>(SB), Y8; \
	VMOVUPD actLog2e<>(SB), Y9; \
	VMOVUPD actShift<>(SB), Y10; \
	VMOVUPD actLn2Hi<>(SB), Y11; \
	VMOVUPD actLn2Lo<>(SB), Y12; \
	VMOVDQU actLow29<>(SB), Y13; \
	VMOVDQU actMidLo<>(SB), Y14; \
	VMOVDQU actMidHi<>(SB), Y15

// EXPM1 takes a in Y2 and leaves m = e^r - 1 in Y3 and 2^k in Y4
// (clobbers Y2 with r, and Y5). In order: t = a·log2e + shift (k in
// its low bits), k = t - shift, r = a - k·ln2hi - k·ln2lo, 2^k from
// t's bits, then Horner from 1/11! down to 1 and a last multiply by r.
#define EXPM1 \
	VMOVAPD      Y10, Y4; \
	VFMADD231PD  Y9, Y2, Y4; \
	VSUBPD       Y10, Y4, Y5; \
	VFNMADD231PD Y11, Y5, Y2; \
	VFNMADD231PD Y12, Y5, Y2; \
	VPADDQ       actBias<>(SB), Y4, Y4; \
	VPSLLQ       $52, Y4, Y4; \
	VMOVUPD      actC11<>(SB), Y3; \
	VFMADD213PD  actC10<>(SB), Y2, Y3; \
	VFMADD213PD  actC9<>(SB), Y2, Y3; \
	VFMADD213PD  actC8<>(SB), Y2, Y3; \
	VFMADD213PD  actC7<>(SB), Y2, Y3; \
	VFMADD213PD  actC6<>(SB), Y2, Y3; \
	VFMADD213PD  actC5<>(SB), Y2, Y3; \
	VFMADD213PD  actC4<>(SB), Y2, Y3; \
	VFMADD213PD  actC3<>(SB), Y2, Y3; \
	VFMADD213PD  actHalf<>(SB), Y2, Y3; \
	VFMADD213PD  Y8, Y2, Y3; \
	VMULPD       Y2, Y3, Y3

// GUARD clears, in the keep mask Y7, every lane whose result Y3 lies
// within 2^12 ulps of a float32 rounding midpoint: the 29 bits
// VCVTPD2PS drops are ≥ 1<<28 - 1<<12 and ≤ 1<<28 + 1<<12
// (clobbers Y5, Y6).
#define GUARD \
	VPAND    Y13, Y3, Y5; \
	VPCMPGTQ Y14, Y5, Y6; \
	VPCMPGTQ Y15, Y5, Y5; \
	VPANDN   Y6, Y5, Y6; \
	VPANDN   Y7, Y6, Y7

TEXT ·sigmoid4(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	CMPQ CX, $0
	JLE  sigDone
	CONSTS

sigLoop:
	VCVTPS2PD (SI)(AX*4), Y0
	VANDPD    actAbs<>(SB), Y0, Y1
	VCMPPD    $0x12, actSigLim<>(SB), Y1, Y7 // |x| ≤ 87, false for NaN
	VXORPD    actSign<>(SB), Y0, Y2          // a = -x
	EXPM1
	VFMADD213PD Y4, Y4, Y3 // e^{-x} = 2^k·m + 2^k
	VADDPD      Y8, Y3, Y3
	VDIVPD      Y3, Y8, Y3 // 1 / (1 + e^{-x})
	GUARD
	VMOVMSKPD   Y7, BX
	CMPL        BX, $15
	JNE         sigDone
	VCVTPD2PSY  Y3, X3
	VMOVUPS     X3, (DI)(AX*4)
	ADDQ        $4, AX
	CMPQ        AX, CX
	JLT         sigLoop

sigDone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

TEXT ·tanh4(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	CMPQ CX, $0
	JLE  tanhDone
	CONSTS

tanhLoop:
	VCVTPS2PD (SI)(AX*4), Y0
	VANDPD    actAbs<>(SB), Y0, Y1
	VCMPPD    $0x12, actTanhHi<>(SB), Y1, Y7 // |x| ≤ 44, false for NaN
	VCMPPD    $0x1d, actTanhLo<>(SB), Y1, Y6 // |x| ≥ 2^-125
	VANDPD    Y6, Y7, Y7
	VADDPD    Y1, Y1, Y2                     // a = 2|x|
	EXPM1
	VSUBPD      Y8, Y4, Y5
	VFMADD213PD Y5, Y4, Y3 // e^a - 1 = 2^k·m + (2^k - 1)
	VADDPD      actTwo<>(SB), Y3, Y5
	VDIVPD      Y5, Y3, Y3 // (e^a - 1) / (e^a + 1)
	GUARD
	VMOVMSKPD   Y7, BX
	CMPL        BX, $15
	JNE         tanhDone
	VANDPD      actSign<>(SB), Y0, Y5
	VORPD       Y5, Y3, Y3 // the sign of x
	VCVTPD2PSY  Y3, X3
	VMOVUPS     X3, (DI)(AX*4)
	ADDQ        $4, AX
	CMPQ        AX, CX
	JLT         tanhLoop

tanhDone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET
