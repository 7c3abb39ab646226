// func sigmoid8(dst, x *float32, n int) int
// func tanh8(dst, x *float32, n int) int
//
// AVX-512 bodies of SigmoidVec and TanhVec over eight float64 lanes per
// group of eight float32 inputs: the AVX2 body's algorithm (act_amd64.s)
// at twice the width, with three changes that shorten the critical path
// and none that touches the contract.
//
//   - The series m = r·(1 + r/2! + … + r^10/11!) is evaluated by Estrin's
//     scheme: five pairs c_2i + c_2i+1·r, folded with r² and r⁴ — five
//     dependent FMAs where Horner takes eleven.
//   - The quotient is a reciprocal, VRCP14PD (relative error ≤ 2^-14)
//     refined by two Newton steps y += y·(1 - d·y) (≲ 2^-52), in place
//     of VDIVPD; tanh multiplies its numerator by it.
//   - The loop runs two independent groups of eight per iteration.
//
// Both changes move the float64 result by a few ulps at most, far
// inside the rounding guard's 2^12-ulp margin, so a kept lane still
// rounds to the scalar reference's float32; the guard and the fast
// ranges are the AVX2 body's (sigmoid |x| ≤ 87, tanh 2^-125 ≤ |x| ≤ 44,
// low 29 bits more than 2^12 from 1<<28). The exhaustive sweep in
// activation_amd64_test.go checks both bodies on all 2^32 inputs.
//
// A group with any lane rejected stops the call before that group is
// stored, as in the AVX2 body: the return value is the count of leading
// elements written, and dst/x from there on are untouched. The last
// group, of 1–8 elements, is read and written under a k-mask in place of
// the AVX2 body's scalar remainder (its absent lanes are zeros and never
// reject it), so n need not be a multiple of eight.
// Every instruction is AVX-512F.

#include "textflag.h"

// ONE lays out one 64-bit constant for a {1to8} broadcast operand.
#define ONE(name, v) DATA name+0(SB)/8, v; GLOBL name(SB), RODATA|NOPTR, $8

ONE(a8Abs<>, $0x7fffffffffffffff)
ONE(a8Sign<>, $0x8000000000000000)
ONE(a8Two<>, $0x4000000000000000)     // 2
ONE(a8Bias<>, $1023)
ONE(a8Low29<>, $0x1fffffff)
ONE(a8MidLo<>, $0x0ffff000)           // 1<<28 - 1<<12
ONE(a8Win<>, $0x2000)                 // 2·2^12: the rejected window's width
ONE(a8SigLim<>, $0x4055c00000000000)  // 87
ONE(a8TanhHi<>, $0x4046000000000000)  // 44
ONE(a8TanhLo<>, $0x3820000000000000)  // 2^-125
ONE(a8C3<>, $0x3fa5555555555555)      // 1/4!
ONE(a8C5<>, $0x3f56c16c16c16c17)      // 1/6!
ONE(a8C7<>, $0x3efa01a01a01a01a)      // 1/8!
ONE(a8C9<>, $0x3e927e4fb7789f5c)      // 1/10!
ONE(a8C10<>, $0x3e5ae64567f544e4)     // 1/11!
ONE(a8One<>, $0x3ff0000000000000)     // 1
ONE(a8Half<>, $0x3fe0000000000000)    // 1/2!
ONE(a8Log2e<>, $0x3ff71547652b82fe)   // log2(e)
ONE(a8Shift<>, $0x4338000000000000)   // 0x1.8p52
ONE(a8Ln2Hi<>, $0x3fe62e42fefa39ef)   // ln2 rounded to float64
ONE(a8Ln2Lo<>, $0x3c7abc9e3b39803f)   // ln2 - a8Ln2Hi
ONE(a8C2<>, $0x3fc5555555555555)      // 1/3!
ONE(a8C4<>, $0x3f81111111111111)      // 1/5!
ONE(a8C6<>, $0x3f2a01a01a01a01a)      // 1/7!
ONE(a8C8<>, $0x3ec71de3a556c734)      // 1/9!

// CONSTS broadcasts the constants the groups add or subtract into
// Z20..Z29: Z20 = 1, Z21 = shift, Z22 = ln2hi, Z23 = ln2lo,
// Z24..Z28 = 1/3!, 1/5!, 1/7!, 1/9!, 1/11!, Z29 = 2^52 bias (integer
// 1023), and the |x| mask into Z31. A factor is broadcast from memory
// into the register an FMA accumulates in, a load where a register copy
// would take a vector port.
#define CONSTS \
	VBROADCASTSD a8One<>(SB), Z20; \
	VBROADCASTSD a8Shift<>(SB), Z21; \
	VBROADCASTSD a8Ln2Hi<>(SB), Z22; \
	VBROADCASTSD a8Ln2Lo<>(SB), Z23; \
	VBROADCASTSD a8C2<>(SB), Z24; \
	VBROADCASTSD a8C4<>(SB), Z25; \
	VBROADCASTSD a8C6<>(SB), Z26; \
	VBROADCASTSD a8C8<>(SB), Z27; \
	VBROADCASTSD a8C10<>(SB), Z28; \
	VPBROADCASTQ a8Bias<>(SB), Z29; \
	VPBROADCASTQ a8Abs<>(SB), Z31

// EXPM1 takes a in A and leaves m = e^r - 1 in P and 2^k in T
// (clobbers A with r, and K, Q0..Q2, R2). The reduction is the AVX2
// body's: t = a·log2e + shift, k = t - shift, r = a - k·ln2hi - k·ln2lo,
// 2^k from t's bits. Then Estrin over c0..c10 = 1, 1/2!, …, 1/11!:
// pairs p_i = c_2i + c_2i+1·r, q0 = p0 + p1·r², q1 = p2 + p3·r²,
// q2 = p4 + c10·r², s = q1 + q2·r⁴, P = q0 + s·r⁴, and m = P·r.
#define EXPM1(A, T, K, P, Q0, Q1, Q2, R2) \
	VBROADCASTSD a8Log2e<>(SB), T; \
	VFMADD213PD  Z21, A, T; \
	VSUBPD       Z21, T, K; \
	VFNMADD231PD Z22, K, A; \
	VFNMADD231PD Z23, K, A; \
	VPADDQ       Z29, T, T; \
	VPSLLQ       $52, T, T; \
	VMULPD       A, A, R2; \
	VBROADCASTSD a8Half<>(SB), P; \
	VFMADD213PD  Z20, A, P; \
	VBROADCASTSD a8C3<>(SB), Q0; \
	VFMADD213PD  Z24, A, Q0; \
	VBROADCASTSD a8C5<>(SB), Q1; \
	VFMADD213PD  Z25, A, Q1; \
	VBROADCASTSD a8C7<>(SB), K; \
	VFMADD213PD  Z26, A, K; \
	VBROADCASTSD a8C9<>(SB), Q2; \
	VFMADD213PD  Z27, A, Q2; \
	VFMADD231PD  Q0, R2, P; \
	VFMADD231PD  K, R2, Q1; \
	VFMADD231PD  Z28, R2, Q2; \
	VMULPD       R2, R2, R2; \
	VFMADD231PD  Q2, R2, Q1; \
	VFMADD231PD  Q1, R2, P; \
	VMULPD       A, P, P

// RECIP leaves 1/D in Y: VRCP14PD and two Newton steps (clobbers E).
#define RECIP(D, Y, E) \
	VRCP14PD     D, Y; \
	VBROADCASTSD a8One<>(SB), E; \
	VFNMADD231PD Y, D, E; \
	VFMADD231PD  E, Y, Y; \
	VBROADCASTSD a8One<>(SB), E; \
	VFNMADD231PD Y, D, E; \
	VFMADD231PD  E, Y, Y

// GUARD clears, in the keep mask KM, every lane whose result Y lies
// within 2^12 ulps of a float32 rounding midpoint: the 29 bits
// VCVTPD2PS drops, less 1<<28 - 1<<12, are at most 2·2^12 unsigned
// (clobbers E).
#define GUARD(Y, E, KM) \
	VPANDQ.BCST  a8Low29<>(SB), Y, E; \
	VPSUBQ.BCST  a8MidLo<>(SB), E, E; \
	VPCMPUQ.BCST $6, a8Win<>(SB), E, KM, KM

// SIGMOID computes σ of the float64 lanes X into Y with keep mask KM
// (clobbers A..R2 as EXPM1 and RECIP do).
#define SIGMOID(X, KM, Y, A, T, K, P, Q0, Q1, Q2, R2) \
	VPANDQ       Z31, X, A; \
	VCMPPD.BCST  $0x12, a8SigLim<>(SB), A, KM; \
	VPXORQ.BCST  a8Sign<>(SB), X, A; \
	EXPM1(A, T, K, P, Q0, Q1, Q2, R2); \
	VFMADD213PD  T, T, P; \
	VADDPD       Z20, P, P; \
	RECIP(P, Y, Q0); \
	GUARD(Y, Q0, KM)

// TANH computes tanh of the float64 lanes X into Y with keep mask KM:
// ±(e^a - 1)·(1/(e^a + 1)) for a = 2|x| (clobbers A..R2).
#define TANH(X, KM, Y, A, T, K, P, Q0, Q1, Q2, R2) \
	VPANDQ       Z31, X, A; \
	VCMPPD.BCST  $0x12, a8TanhHi<>(SB), A, KM; \
	VCMPPD.BCST  $0x1d, a8TanhLo<>(SB), A, KM, KM; \
	VADDPD       A, A, A; \
	EXPM1(A, T, K, P, Q0, Q1, Q2, R2); \
	VSUBPD       Z20, T, K; \
	VFMADD213PD  K, T, P; \
	VADDPD.BCST  a8Two<>(SB), P, A; \
	RECIP(A, Y, Q0); \
	VMULPD       P, Y, Y; \
	GUARD(Y, Q0, KM); \
	VPANDQ.BCST  a8Sign<>(SB), X, Q0; \
	VPORQ        Q0, Y, Y

// PAIR runs F over the two groups at AX and AX+8 and stores each one
// whose lanes all pass; it jumps to done at the first that does not.
#define PAIR(F, done) \
	VCVTPS2PD (SI)(AX*4), Z0; \
	VCVTPS2PD 32(SI)(AX*4), Z10; \
	F(Z0, K1, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9); \
	F(Z10, K2, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19); \
	KMOVW     K1, BX; \
	CMPL      BX, $0xff; \
	JNE       done; \
	VCVTPD2PS Z1, Y1; \
	VMOVUPS   Y1, (DI)(AX*4); \
	ADDQ      $8, AX; \
	KMOVW     K2, BX; \
	CMPL      BX, $0xff; \
	JNE       done; \
	VCVTPD2PS Z11, Y11; \
	VMOVUPS   Y11, (DI)(AX*4); \
	ADDQ      $8, AX

// LAST runs F over the DX ≤ 8 elements at AX under the k-mask K3 (R8
// holds it) and stores them if every present lane passes.
#define LAST(F, done) \
	MOVQ        DX, CX; \
	MOVQ        $1, R8; \
	SHLQ        CX, R8; \
	DECQ        R8; \
	KMOVW       R8, K3; \
	VCVTPS2PD.Z (SI)(AX*4), K3, Z0; \
	F(Z0, K1, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9); \
	KMOVW       K1, BX; \
	ANDL        R8, BX; \
	CMPL        BX, R8; \
	JNE         done; \
	VCVTPD2PS   Z1, Y1; \
	VMOVUPS     Y1, K3, (DI)(AX*4); \
	ADDQ        DX, AX

// ARGS loads dst, x and n (into R9) and clears the count AX.
#define ARGS \
	MOVQ dst+0(FP), DI; \
	MOVQ x+8(FP), SI; \
	MOVQ n+16(FP), R9; \
	XORQ AX, AX; \
	CONSTS

TEXT ·sigmoid8(SB), NOSPLIT, $0-32
	ARGS

sigPairs:
	LEAQ 16(AX), DX
	CMPQ DX, R9
	JGT  sigLast
	PAIR(SIGMOID, sigDone)
	JMP  sigPairs

sigLast:
	MOVQ R9, DX
	SUBQ AX, DX
	JLE  sigDone
	CMPQ DX, $8
	JLE  sigMask
	MOVQ $8, DX

sigMask:
	LAST(SIGMOID, sigDone)
	JMP sigLast

sigDone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

TEXT ·tanh8(SB), NOSPLIT, $0-32
	ARGS

tanhPairs:
	LEAQ 16(AX), DX
	CMPQ DX, R9
	JGT  tanhLast
	PAIR(TANH, tanhDone)
	JMP  tanhPairs

tanhLast:
	MOVQ R9, DX
	SUBQ AX, DX
	JLE  tanhDone
	CMPQ DX, $8
	JLE  tanhMask
	MOVQ $8, DX

tanhMask:
	LAST(TANH, tanhDone)
	JMP tanhLast

tanhDone:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET
