//go:build amd64

#include "textflag.h"

// Int8 kernels: qdotGo's arithmetic in vector registers, not reordered. Per
// chunk the sixteen strided partials of one activation row are one ZMM
// accumulator (the AVX-512 tier) or two YMM ones, Y_lo = p[0..7] and
// Y_hi = p[8..15] (the AVX2 tier). Each 16-wide block sign-extends and
// converts its codes once (VPMOVSXBD + VCVTDQ2PS) and issues, per row, one
// VMULPS and one VADDPS per register, never an FMA. The combine
// (L0+L1) + (L2+L3), Lq the q-th 128-bit quarter p[4q..4q+3], gives
// c[0..3], two rounds of VHADDPS give (c0+c1)+(c2+c3), the sub-16 tail is
// added one product at a time, and each chunk sum is scaled once into the
// running total in ascending chunk order. As in fp32_amd64.s the running
// value comes first in every add, and every routine ends with VZEROUPPER.
//
// Every routine walks n rows of codes (k bytes each, scales back to back)
// with R9 at the current row, SI the element index in it, R10 the scale
// cursor. The two-to-four-row routines take a rows argument: the row
// pointers past it alias the last real row, whose sums they repeat, and only
// rows outputs per column are stored, so the rows a batch leaves over after
// its groups of four cost one grouped pass. R15 is never touched: it is
// clobbered under -dynlink. The ZMM tier's block loops start 32-byte aligned
// (PCALIGN). That padding also sets where the code linked after this file
// lands, which serve_decode_closed is sensitive to (ROADMAP item 23): with
// it, LSTM.gates and LSTM.stepInfer sit at 0 mod 64, as before this tier.

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

// ZMAC16(a, acc, t): acc += a[SI:SI+16]·Z8, Z8 the block's converted codes.
#define ZMAC16(a, acc, t) \
	VMULPS	(a)(SI*4), Z8, t; \
	VADDPS	t, acc, acc

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

// ZHADD4(z0, z1, out, t): out's quarters are z0's L0+L1, L2+L3, then z1's,
// the left quarter first in each add.
#define ZHADD4(z0, z1, out, t) \
	VSHUFF32X4	$0x88, z1, z0, out; \
	VSHUFF32X4	$0xdd, z1, z0, t; \
	VADDPS	t, out, out

// SUMS4 turns Y8 = c of row 0 | c of row 1 and Y9 = c of row 2 | c of row 3
// into X8 = s0, s1, s2, s3: the first VHADDPS leaves c0+c1, c2+c3 of row 0,
// of row 2 | of row 1, row 3, the second s0, s2, s0, s2 | s1, s3, s1, s3.
#define SUMS4 \
	VHADDPS	Y9, Y8, Y8; \
	VHADDPS	Y8, Y8, Y8; \
	VEXTRACTF128	$1, Y8, X9; \
	VUNPCKLPS	X9, X8, X8

// ROWS4(a, rows, k): AX, BX, CX, DX at a's rows 0..3, those past rows at
// row rows-1.
#define ROWS4(a, rows, k) \
	MOVQ	a, AX; \
	MOVQ	k, R13; \
	SHLQ	$2, R13; \
	MOVQ	rows, R12; \
	LEAQ	(AX)(R13*1), BX; \
	MOVQ	BX, CX; \
	CMPQ	R12, $3; \
	JLT	2(PC); \
	ADDQ	R13, CX; \
	MOVQ	CX, DX; \
	CMPQ	R12, $4; \
	JLT	2(PC); \
	ADDQ	R13, DX

// TAIL4 adds one tail product a_r[SI]·code to lane r of X8.
#define TAIL4 \
	MOVBLSX	(R9)(SI*1), R13; \
	VCVTSI2SSL	R13, X10, X10; \
	VBROADCASTSS	X10, X10; \
	VMOVSS	(AX)(SI*4), X11; \
	VINSERTPS	$0x10, (BX)(SI*4), X11, X11; \
	VINSERTPS	$0x20, (CX)(SI*4), X11, X11; \
	VINSERTPS	$0x30, (DX)(SI*4), X11, X11; \
	VMULPS	X10, X11, X11; \
	VADDPS	X11, X8, X8

// SCALE4 adds the chunk sums X8, scaled, to the running totals X15.
#define SCALE4 \
	VBROADCASTSS	(R10), X10; \
	VMULPS	X8, X10, X10; \
	VADDPS	X10, X15, X15; \
	ADDQ	$4, R10

// STORE4(rows) stores lanes 0..rows-1 of X15 down the column at DI, R8
// bytes apart.
#define STORE4(rows) \
	MOVQ	DI, R13; \
	VMOVSS	X15, (R13); \
	ADDQ	R8, R13; \
	VEXTRACTPS	$1, X15, (R13); \
	CMPQ	rows, $3; \
	JLT	7(PC); \
	ADDQ	R8, R13; \
	VEXTRACTPS	$2, X15, (R13); \
	CMPQ	rows, $4; \
	JLT	3(PC); \
	ADDQ	R8, R13; \
	VEXTRACTPS	$3, X15, (R13)

// COMBINE1 turns one row's Y0 = p[0..7], Y1 = p[8..15] into its chunk sum
// in X0: c[j] = (p[j]+p[4+j]) + (p[8+j]+p[12+j]), then (c0+c1)+(c2+c3).
#define COMBINE1 \
	VEXTRACTF128	$1, Y0, X2; \
	VADDPS	X2, X0, X0; \
	VEXTRACTF128	$1, Y1, X3; \
	VADDPS	X3, X1, X1; \
	VADDPS	X1, X0, X0; \
	VHADDPS	X0, X0, X0; \
	VHADDPS	X0, X0, X0

// TAIL1 adds one tail product a[SI]·code to X0.
#define TAIL1 \
	MOVBLSX	(R9)(SI*1), R13; \
	VCVTSI2SSL	R13, X10, X10; \
	VMULSS	(AX)(SI*4), X10, X11; \
	VADDSS	X11, X0, X0

// SCALE1 adds the chunk sum X0, scaled, to the running total X7.
#define SCALE1 \
	VMOVSS	(R10), X10; \
	VMULSS	X0, X10, X10; \
	VADDSS	X10, X7, X7; \
	ADDQ	$4, R10

// func q8Rows4AVX512(dst *float32, dstStride int, a *float32, rows int, codes *int8, scales *float32, n, k, chunk int)
//
// dst[r*dstStride+j] = qdot(a[r*k:(r+1)*k], row j of codes) for r in
// [0, rows), rows in [2, 4], j in [0, n): up to four a rows share each
// converted code. Row r accumulates in Z_r; three ZHADD4 leave its c[0..3]
// in quarter r of Z8, and from SUMS4 on lane r of X8 is its chunk sum and
// lane r of X15 its running total.
TEXT ·q8Rows4AVX512(SB), NOSPLIT, $0-72
	MOVQ	dst+0(FP), DI
	MOVQ	dstStride+8(FP), R8
	SHLQ	$2, R8
	ROWS4(a+16(FP), rows+24(FP), k+56(FP))
	MOVQ	codes+32(FP), R9
	MOVQ	scales+40(FP), R10
	MOVQ	n+48(FP), R14

z4row:
	XORQ	SI, SI
	VXORPS	X15, X15, X15
z4chunk:
	CHUNKBOUNDS(k+56(FP), chunk+64(FP), z4rowDone)
	VXORPS	X0, X0, X0 // a VEX write zeroes the whole ZMM register
	VXORPS	X1, X1, X1
	VXORPS	X2, X2, X2
	VXORPS	X3, X3, X3
	PCALIGN	$32
z4block:
	CMPQ	SI, R11
	JGE	z4combine
	VPMOVSXBD	(R9)(SI*1), Z8
	VCVTDQ2PS	Z8, Z8
	ZMAC16(AX, Z0, Z10)
	ZMAC16(BX, Z1, Z11)
	ZMAC16(CX, Z2, Z12)
	ZMAC16(DX, Z3, Z13)
	ADDQ	$16, SI
	JMP	z4block
z4combine:
	ZHADD4(Z0, Z1, Z10, Z12)           // L0+L1, L2+L3 of row 0 | of row 1
	ZHADD4(Z2, Z3, Z11, Z12)           // the same of rows 2, 3
	ZHADD4(Z10, Z11, Z8, Z12)          // quarter r: c of row r
	VEXTRACTF64X4	$1, Z8, Y9
	SUMS4
z4tail:
	CMPQ	SI, R12
	JGE	z4scale
	TAIL4
	INCQ	SI
	JMP	z4tail
z4scale:
	SCALE4
	JMP	z4chunk
z4rowDone:
	STORE4(rows+24(FP))
	ADDQ	$4, DI
	ADDQ	k+56(FP), R9
	DECQ	R14
	JNZ	z4row
	VZEROUPPER
	RET

// func q8Rows4AVX2(dst *float32, dstStride int, a *float32, rows int, codes *int8, scales *float32, n, k, chunk int)
//
// q8Rows4AVX512 at AVX2 width. Rows 0..3 accumulate in (Y0,Y1) (Y2,Y3)
// (Y4,Y5) (Y6,Y7); two PAIRC leave row r's c[0..3] in half r of Y8 and Y9.
TEXT ·q8Rows4AVX2(SB), NOSPLIT, $0-72
	MOVQ	dst+0(FP), DI
	MOVQ	dstStride+8(FP), R8
	SHLQ	$2, R8
	ROWS4(a+16(FP), rows+24(FP), k+56(FP))
	MOVQ	codes+32(FP), R9
	MOVQ	scales+40(FP), R10
	MOVQ	n+48(FP), R14

q4row:
	XORQ	SI, SI
	VXORPS	X15, X15, X15
q4chunk:
	CHUNKBOUNDS(k+56(FP), chunk+64(FP), q4rowDone)
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
	SUMS4
q4tail:
	CMPQ	SI, R12
	JGE	q4scale
	TAIL4
	INCQ	SI
	JMP	q4tail
q4scale:
	SCALE4
	JMP	q4chunk
q4rowDone:
	STORE4(rows+24(FP))
	ADDQ	$4, DI
	ADDQ	k+56(FP), R9
	DECQ	R14
	JNZ	q4row
	VZEROUPPER
	RET

// func q8Rows1AVX512(dst, a *float32, codes *int8, scales *float32, n, k, chunk int)
//
// dst[j] = qdot(a[0:k], row j of codes) for j in [0, n): batch-1 decode and a
// single row left over by groups of four, one ZMM accumulator (Z0), split
// into Y0 and Y1 for COMBINE1.
TEXT ·q8Rows1AVX512(SB), NOSPLIT, $0-56
	MOVQ	dst+0(FP), DI
	MOVQ	a+8(FP), AX
	MOVQ	codes+16(FP), R9
	MOVQ	scales+24(FP), R10
	MOVQ	n+32(FP), R14

z1row:
	XORQ	SI, SI
	VXORPS	X7, X7, X7
z1chunk:
	CHUNKBOUNDS(k+40(FP), chunk+48(FP), z1rowDone)
	VXORPS	X0, X0, X0
	PCALIGN	$32
z1block:
	CMPQ	SI, R11
	JGE	z1combine
	VPMOVSXBD	(R9)(SI*1), Z8
	VCVTDQ2PS	Z8, Z8
	ZMAC16(AX, Z0, Z10)
	ADDQ	$16, SI
	JMP	z1block
z1combine:
	VEXTRACTF64X4	$1, Z0, Y1
	COMBINE1
z1tail:
	CMPQ	SI, R12
	JGE	z1scale
	TAIL1
	INCQ	SI
	JMP	z1tail
z1scale:
	SCALE1
	JMP	z1chunk
z1rowDone:
	VMOVSS	X7, (DI)
	ADDQ	$4, DI
	ADDQ	k+40(FP), R9
	DECQ	R14
	JNZ	z1row
	VZEROUPPER
	RET

// func q8Rows1AVX2(dst, a *float32, codes *int8, scales *float32, n, k, chunk int)
//
// q8Rows1AVX512 at AVX2 width, accumulating in Y0 and Y1.
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
	COMBINE1
q1tail:
	CMPQ	SI, R12
	JGE	q1scale
	TAIL1
	INCQ	SI
	JMP	q1tail
q1scale:
	SCALE1
	JMP	q1chunk
q1rowDone:
	VMOVSS	X7, (DI)
	ADDQ	$4, DI
	ADDQ	k+40(FP), R9
	DECQ	R14
	JNZ	q1row
	VZEROUPPER
	RET
