//go:build amd64

#include "textflag.h"

// Int8 kernels: qdotGo's arithmetic at AVX2 width, not reordered. Per chunk
// the sixteen strided partials are two YMM accumulators per output
// (Y_lo = p[0..7], Y_hi = p[8..15]); each 16-wide block sign-extends and
// converts its codes once (VPMOVSXBD + VCVTDQ2PS, 8 lanes each) and issues one
// VMULPS and one VADDPS per half, never an FMA. The combine
// (lo128(Y_lo)+hi128(Y_lo)) + (lo128(Y_hi)+hi128(Y_hi)) gives c[0..3], two
// rounds of VHADDPS give (c0+c1)+(c2+c3), the sub-16 tail is added one product
// at a time, and each chunk sum is scaled once into the running total in
// ascending chunk order. As in fp32_amd64.s the running value comes first in
// every add, and every routine ends with VZEROUPPER.
//
// Both routines walk n rows of codes (k bytes each, scales back to back) with
// R9 at the current row, SI the element index in it, R10 the scale cursor.

// CHUNKBOUNDS leaves the row when SI reaches k, else sets R12 to the end of
// the chunk starting at SI and R11 to the end of its 16-wide prefix.
#define CHUNKBOUNDS(k, chunk, rowDone) \
	CMPQ	SI, k; \
	JGE	rowDone; \
	MOVQ	SI, R12; \
	ADDQ	chunk, R12; \
	CMPQ	R12, k; \
	JLE	2(PC); \
	MOVQ	k, R12; \
	MOVQ	R12, R11; \
	SUBQ	SI, R11; \
	ANDQ	$-16, R11; \
	ADDQ	SI, R11

// CODES16 converts the block's sixteen codes into Y8 (p[0..7]'s) and Y9.
#define CODES16 \
	VPMOVSXBD	(R9)(SI*1), Y8; \
	VCVTDQ2PS	Y8, Y8; \
	VPMOVSXBD	8(R9)(SI*1), Y9; \
	VCVTDQ2PS	Y9, Y9

// MAC16(a, lo, hi, t0, t1): lo += a[SI:SI+8]·Y8, hi += a[SI+8:SI+16]·Y9.
#define MAC16(a, lo, hi, t0, t1) \
	VMULPS	(a)(SI*4), Y8, t0; \
	VADDPS	t0, lo, lo; \
	VMULPS	32(a)(SI*4), Y9, t1; \
	VADDPS	t1, hi, hi

// PAIRC(lo0, hi0, lo1, hi1, out, t): out = c[0..3] of one a row | c[0..3] of
// another, from the two rows' accumulator pairs.
#define PAIRC(lo0, hi0, lo1, hi1, out, t) \
	VPERM2F128	$0x20, lo1, lo0, out; \
	VPERM2F128	$0x31, lo1, lo0, t; \
	VADDPS	t, out, out; \
	VPERM2F128	$0x20, hi1, hi0, t; \
	VPERM2F128	$0x31, hi1, hi0, lo0; \
	VADDPS	lo0, t, t; \
	VADDPS	t, out, out

// func q8Rows4AVX2(dst *float32, dstStride int, a *float32, codes *int8, scales *float32, n, k, chunk int)
//
// dst[r*dstStride+j] = qdot(a[r*k:(r+1)*k], row j of codes) for r in [0, 4),
// j in [0, n): four a rows share each converted code. Rows 0..3 accumulate in
// (Y0,Y1) (Y2,Y3) (Y4,Y5) (Y6,Y7); from the combine on, lane r of X8 is row
// r's chunk sum and lane r of X15 its running total.
TEXT ·q8Rows4AVX2(SB), NOSPLIT, $0-64
	MOVQ	dst+0(FP), DI
	MOVQ	dstStride+8(FP), R8
	SHLQ	$2, R8
	MOVQ	a+16(FP), AX
	MOVQ	k+48(FP), R13
	LEAQ	(AX)(R13*4), BX
	LEAQ	(BX)(R13*4), CX
	LEAQ	(CX)(R13*4), DX
	MOVQ	codes+24(FP), R9
	MOVQ	scales+32(FP), R10
	MOVQ	n+40(FP), R14

q4row:
	XORQ	SI, SI
	VXORPS	X15, X15, X15
q4chunk:
	CHUNKBOUNDS(k+48(FP), chunk+56(FP), q4rowDone)
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3
	VXORPS	Y4, Y4, Y4
	VXORPS	Y5, Y5, Y5
	VXORPS	Y6, Y6, Y6
	VXORPS	Y7, Y7, Y7
q4block:
	CMPQ	SI, R11
	JGE	q4combine
	CODES16
	MAC16(AX, Y0, Y1, Y10, Y11)
	MAC16(BX, Y2, Y3, Y12, Y13)
	MAC16(CX, Y4, Y5, Y10, Y11)
	MAC16(DX, Y6, Y7, Y12, Y13)
	ADDQ	$16, SI
	JMP	q4block
q4combine:
	PAIRC(Y0, Y1, Y2, Y3, Y8, Y10)     // c of row 0 | row 1
	PAIRC(Y4, Y5, Y6, Y7, Y9, Y10)     // c of row 2 | row 3
	VHADDPS	Y9, Y8, Y8                 // c0+c1, c2+c3 of row 0, of row 2 | row 1, row 3
	VHADDPS	Y8, Y8, Y8                 // s0, s2, s0, s2 | s1, s3, s1, s3
	VEXTRACTF128	$1, Y8, X9
	VUNPCKLPS	X9, X8, X8             // s0, s1, s2, s3
q4tail:
	CMPQ	SI, R12
	JGE	q4scale
	MOVBLSX	(R9)(SI*1), R13
	VCVTSI2SSL	R13, X10, X10
	VBROADCASTSS	X10, X10
	VMOVSS	(AX)(SI*4), X11
	VINSERTPS	$0x10, (BX)(SI*4), X11, X11
	VINSERTPS	$0x20, (CX)(SI*4), X11, X11
	VINSERTPS	$0x30, (DX)(SI*4), X11, X11
	VMULPS	X10, X11, X11
	VADDPS	X11, X8, X8
	INCQ	SI
	JMP	q4tail
q4scale:
	VBROADCASTSS	(R10), X10
	VMULPS	X8, X10, X10
	VADDPS	X10, X15, X15
	ADDQ	$4, R10
	JMP	q4chunk
q4rowDone:
	MOVQ	DI, R13
	VMOVSS	X15, (R13)
	ADDQ	R8, R13
	VEXTRACTPS	$1, X15, (R13)
	ADDQ	R8, R13
	VEXTRACTPS	$2, X15, (R13)
	ADDQ	R8, R13
	VEXTRACTPS	$3, X15, (R13)
	ADDQ	$4, DI
	ADDQ	k+48(FP), R9
	DECQ	R14
	JNZ	q4row
	VZEROUPPER
	RET

// func q8Rows1AVX2(dst, a *float32, codes *int8, scales *float32, n, k, chunk int)
//
// dst[j] = qdot(a[0:k], row j of codes) for j in [0, n): batch-1 decode and
// the a rows left over by groups of four.
TEXT ·q8Rows1AVX2(SB), NOSPLIT, $0-56
	MOVQ	dst+0(FP), DI
	MOVQ	a+8(FP), AX
	MOVQ	codes+16(FP), R9
	MOVQ	scales+24(FP), R10
	MOVQ	n+32(FP), R14

q1row:
	XORQ	SI, SI
	VXORPS	X7, X7, X7
q1chunk:
	CHUNKBOUNDS(k+40(FP), chunk+48(FP), q1rowDone)
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
q1block:
	CMPQ	SI, R11
	JGE	q1combine
	CODES16
	MAC16(AX, Y0, Y1, Y10, Y11)
	ADDQ	$16, SI
	JMP	q1block
q1combine:
	VEXTRACTF128	$1, Y0, X2
	VADDPS	X2, X0, X0                 // p[j] + p[4+j]
	VEXTRACTF128	$1, Y1, X3
	VADDPS	X3, X1, X1                 // p[8+j] + p[12+j]
	VADDPS	X1, X0, X0                 // c[j]
	VHADDPS	X0, X0, X0
	VHADDPS	X0, X0, X0                 // (c0+c1) + (c2+c3)
q1tail:
	CMPQ	SI, R12
	JGE	q1scale
	MOVBLSX	(R9)(SI*1), R13
	VCVTSI2SSL	R13, X10, X10
	VMULSS	(AX)(SI*4), X10, X11
	VADDSS	X11, X0, X0
	INCQ	SI
	JMP	q1tail
q1scale:
	VMOVSS	(R10), X10
	VMULSS	X0, X10, X10
	VADDSS	X10, X7, X7
	ADDQ	$4, R10
	JMP	q1chunk
q1rowDone:
	VMOVSS	X7, (DI)
	ADDQ	$4, DI
	ADDQ	k+40(FP), R9
	DECQ	R14
	JNZ	q1row
	VZEROUPPER
	RET
