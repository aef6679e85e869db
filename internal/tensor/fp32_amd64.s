//go:build amd64

#include "textflag.h"

// FP32 kernels. Every routine performs exactly the multiplies and adds of its
// portable twin in tensor.go, in the same order per output element, each one
// rounded separately (VMULPS then VADDPS, never FMA). Operand order is fixed
// too — running value first in every add, multiplier (a) first in every
// multiply — so the routines agree with one another on NaN payloads. Every
// routine ends with VZEROUPPER: the Go code around them is legacy-encoded SSE.
// The *AVX512 routines are the ZMM tier (gate useFP32AVX512); they use only
// Z0–Z15, whose upper halves VZEROUPPER clears too, and the opmasks K1–K3.

// func addAVX(dst, src *float32, n int)
//
// dst[i] += src[i].
TEXT ·addAVX(SB), NOSPLIT, $0-24
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
add32:
	CMPQ	CX, $32
	JL	add8
	VMOVUPS	(DI), Y0
	VMOVUPS	32(DI), Y1
	VMOVUPS	64(DI), Y2
	VMOVUPS	96(DI), Y3
	VADDPS	(SI), Y0, Y0
	VADDPS	32(SI), Y1, Y1
	VADDPS	64(SI), Y2, Y2
	VADDPS	96(SI), Y3, Y3
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	VMOVUPS	Y2, 64(DI)
	VMOVUPS	Y3, 96(DI)
	ADDQ	$128, DI
	ADDQ	$128, SI
	SUBQ	$32, CX
	JMP	add32
add8:
	CMPQ	CX, $8
	JL	add1
	VMOVUPS	(DI), Y0
	VADDPS	(SI), Y0, Y0
	VMOVUPS	Y0, (DI)
	ADDQ	$32, DI
	ADDQ	$32, SI
	SUBQ	$8, CX
	JMP	add8
add1:
	TESTQ	CX, CX
	JLE	addDone
	VMOVSS	(DI), X0
	VADDSS	(SI), X0, X0
	VMOVSS	X0, (DI)
	ADDQ	$4, DI
	ADDQ	$4, SI
	DECQ	CX
	JMP	add1
addDone:
	VZEROUPPER
	RET

// AXPY8(off, prod, acc): acc += Y15 * src[off:off+8], Y15 the broadcast
// multiplier, SI the source cursor.
#define AXPY8(off, prod, acc) \
	VMULPS	off(SI), Y15, prod; \
	VADDPS	prod, acc, acc

// func axpyAVX(alpha float32, dst, src *float32, n int)
//
// dst[i] += alpha * src[i], no test on alpha (0·Inf must still reach dst).
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSS	alpha+0(FP), Y15
	MOVQ	dst+8(FP), DI
	MOVQ	src+16(FP), SI
	MOVQ	n+24(FP), CX
axpy32:
	CMPQ	CX, $32
	JL	axpy8
	VMOVUPS	(DI), Y0
	VMOVUPS	32(DI), Y1
	VMOVUPS	64(DI), Y2
	VMOVUPS	96(DI), Y3
	AXPY8(0, Y8, Y0)
	AXPY8(32, Y9, Y1)
	AXPY8(64, Y10, Y2)
	AXPY8(96, Y11, Y3)
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	VMOVUPS	Y2, 64(DI)
	VMOVUPS	Y3, 96(DI)
	ADDQ	$128, DI
	ADDQ	$128, SI
	SUBQ	$32, CX
	JMP	axpy32
axpy8:
	CMPQ	CX, $8
	JL	axpy1
	VMOVUPS	(DI), Y0
	AXPY8(0, Y8, Y0)
	VMOVUPS	Y0, (DI)
	ADDQ	$32, DI
	ADDQ	$32, SI
	SUBQ	$8, CX
	JMP	axpy8
axpy1:
	TESTQ	CX, CX
	JLE	axpyDone
	VMOVSS	(DI), X0
	VMULSS	(SI), X15, X8
	VADDSS	X8, X0, X0
	VMOVSS	X0, (DI)
	ADDQ	$4, DI
	ADDQ	$4, SI
	DECQ	CX
	JMP	axpy1
axpyDone:
	VZEROUPPER
	RET

// func scaleAVX(x *float32, n int, alpha float32)
//
// x[i] *= alpha.
TEXT ·scaleAVX(SB), NOSPLIT, $0-20
	MOVQ	x+0(FP), DI
	MOVQ	n+8(FP), CX
	VBROADCASTSS	alpha+16(FP), Y15
scale32:
	CMPQ	CX, $32
	JL	scale8
	VMULPS	(DI), Y15, Y0
	VMULPS	32(DI), Y15, Y1
	VMULPS	64(DI), Y15, Y2
	VMULPS	96(DI), Y15, Y3
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	VMOVUPS	Y2, 64(DI)
	VMOVUPS	Y3, 96(DI)
	ADDQ	$128, DI
	SUBQ	$32, CX
	JMP	scale32
scale8:
	CMPQ	CX, $8
	JL	scale1
	VMULPS	(DI), Y15, Y0
	VMOVUPS	Y0, (DI)
	ADDQ	$32, DI
	SUBQ	$8, CX
	JMP	scale8
scale1:
	TESTQ	CX, CX
	JLE	scaleDone
	VMULSS	(DI), X15, X0
	VMOVSS	X0, (DI)
	ADDQ	$4, DI
	DECQ	CX
	JMP	scale1
scaleDone:
	VZEROUPPER
	RET

// RUNSTEP opens one k step of axpyRunAVX and axpyRunAVX512: leave the loop
// at the end of the run (R13 == R10), or cut the run short at a ±0
// multiplier (bits<<1 == 0), else broadcast the multiplier into mul (Y15 or
// Z15).
#define RUNSTEP(done, zero, mul) \
	CMPQ	R13, R10; \
	JGE	done; \
	MOVL	(R11), DX; \
	ADDL	DX, DX; \
	JZ	zero; \
	VBROADCASTSS	(R11), mul

// RUNNEXT closes the k step: next multiplier, next b row.
#define RUNNEXT(loop) \
	ADDQ	R8, R11; \
	ADDQ	R9, SI; \
	INCQ	R13; \
	JMP	loop

// func axpyRunAVX(dst *float32, n int, a *float32, astride int, b *float32, bstride, k int) int
//
// For kk = 0, 1, ... < k: stop if a[kk*astride] is ±0, else
// dst[0:n] += a[kk*astride] * b[kk*bstride : kk*bstride+n]. Returns the
// number of steps taken. The n columns are walked in blocks of 64, 32, 8 and
// 1 whose running sums stay in registers across the whole run, so dst is
// read and written once per call instead of once per step; per element the
// adds are the same ones, in the same ascending-k order, as k axpy calls.
// The first block to meet a zero multiplier shortens the run for the blocks
// after it (they would meet the same zero).
TEXT ·axpyRunAVX(SB), NOSPLIT, $0-64
	MOVQ	dst+0(FP), DI
	MOVQ	n+8(FP), CX
	MOVQ	a+16(FP), AX
	MOVQ	astride+24(FP), R8
	MOVQ	b+32(FP), BX
	MOVQ	bstride+40(FP), R9
	MOVQ	k+48(FP), R10
	SHLQ	$2, R8
	SHLQ	$2, R9

run64:
	CMPQ	CX, $64
	JL	run32
	VMOVUPS	(DI), Y0
	VMOVUPS	32(DI), Y1
	VMOVUPS	64(DI), Y2
	VMOVUPS	96(DI), Y3
	VMOVUPS	128(DI), Y4
	VMOVUPS	160(DI), Y5
	VMOVUPS	192(DI), Y6
	VMOVUPS	224(DI), Y7
	MOVQ	AX, R11
	MOVQ	BX, SI
	XORQ	R13, R13
run64k:
	RUNSTEP(run64done, run64zero, Y15)
	AXPY8(0, Y8, Y0)
	AXPY8(32, Y9, Y1)
	AXPY8(64, Y10, Y2)
	AXPY8(96, Y11, Y3)
	AXPY8(128, Y12, Y4)
	AXPY8(160, Y13, Y5)
	AXPY8(192, Y14, Y6)
	AXPY8(224, Y8, Y7)
	RUNNEXT(run64k)
run64zero:
	MOVQ	R13, R10
run64done:
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	VMOVUPS	Y2, 64(DI)
	VMOVUPS	Y3, 96(DI)
	VMOVUPS	Y4, 128(DI)
	VMOVUPS	Y5, 160(DI)
	VMOVUPS	Y6, 192(DI)
	VMOVUPS	Y7, 224(DI)
	ADDQ	$256, DI
	ADDQ	$256, BX
	SUBQ	$64, CX
	JMP	run64

run32:
	CMPQ	CX, $32
	JL	run8
	VMOVUPS	(DI), Y0
	VMOVUPS	32(DI), Y1
	VMOVUPS	64(DI), Y2
	VMOVUPS	96(DI), Y3
	MOVQ	AX, R11
	MOVQ	BX, SI
	XORQ	R13, R13
run32k:
	RUNSTEP(run32done, run32zero, Y15)
	AXPY8(0, Y8, Y0)
	AXPY8(32, Y9, Y1)
	AXPY8(64, Y10, Y2)
	AXPY8(96, Y11, Y3)
	RUNNEXT(run32k)
run32zero:
	MOVQ	R13, R10
run32done:
	VMOVUPS	Y0, (DI)
	VMOVUPS	Y1, 32(DI)
	VMOVUPS	Y2, 64(DI)
	VMOVUPS	Y3, 96(DI)
	ADDQ	$128, DI
	ADDQ	$128, BX
	SUBQ	$32, CX
	JMP	run32

run8:
	CMPQ	CX, $8
	JL	run1
	VMOVUPS	(DI), Y0
	MOVQ	AX, R11
	MOVQ	BX, SI
	XORQ	R13, R13
run8k:
	RUNSTEP(run8done, run8zero, Y15)
	AXPY8(0, Y8, Y0)
	RUNNEXT(run8k)
run8zero:
	MOVQ	R13, R10
run8done:
	VMOVUPS	Y0, (DI)
	ADDQ	$32, DI
	ADDQ	$32, BX
	SUBQ	$8, CX
	JMP	run8

run1:
	TESTQ	CX, CX
	JLE	runRet
	VMOVSS	(DI), X0
	MOVQ	AX, R11
	MOVQ	BX, SI
	XORQ	R13, R13
run1k:
	RUNSTEP(run1done, run1zero, Y15)
	VMULSS	(SI), X15, X8
	VADDSS	X8, X0, X0
	RUNNEXT(run1k)
run1zero:
	MOVQ	R13, R10
run1done:
	VMOVSS	X0, (DI)
	ADDQ	$4, DI
	ADDQ	$4, BX
	DECQ	CX
	JMP	run1

runRet:
	MOVQ	R10, ret+56(FP)
	VZEROUPPER
	RET

// AXPY16(off, prod, acc): acc += Z15 * src[off:off+16], AXPY8 sixteen lanes
// wide.
#define AXPY16(off, prod, acc) \
	VMULPS	off(SI), Z15, prod; \
	VADDPS	prod, acc, acc

// func axpyRunAVX512(dst *float32, n int, a *float32, astride int, b *float32, bstride, k int) int
//
// axpyRunAVX over n columns, n a positive multiple of 64, sixteen lanes
// wide: blocks of 128 columns keep their running sums in eight ZMM
// registers and a last block of 64 in four, each block taking the same
// multiplies and adds, in the same order and with the same operands first,
// as axpyRunAVX's blocks of 64, and meeting a ±0 multiplier the same way.
// axpyRun hands the 32/8/1-column tail of a run to axpyRunAVX, with k cut to
// the steps this routine took.
TEXT ·axpyRunAVX512(SB), NOSPLIT, $0-64
	MOVQ	dst+0(FP), DI
	MOVQ	n+8(FP), CX
	MOVQ	a+16(FP), AX
	MOVQ	astride+24(FP), R8
	MOVQ	b+32(FP), BX
	MOVQ	bstride+40(FP), R9
	MOVQ	k+48(FP), R10
	SHLQ	$2, R8
	SHLQ	$2, R9

zrun128:
	CMPQ	CX, $128
	JL	zrun64
	VMOVUPS	(DI), Z0
	VMOVUPS	64(DI), Z1
	VMOVUPS	128(DI), Z2
	VMOVUPS	192(DI), Z3
	VMOVUPS	256(DI), Z4
	VMOVUPS	320(DI), Z5
	VMOVUPS	384(DI), Z6
	VMOVUPS	448(DI), Z7
	MOVQ	AX, R11
	MOVQ	BX, SI
	XORQ	R13, R13
zrun128k:
	RUNSTEP(zrun128done, zrun128zero, Z15)
	AXPY16(0, Z8, Z0)
	AXPY16(64, Z9, Z1)
	AXPY16(128, Z10, Z2)
	AXPY16(192, Z11, Z3)
	AXPY16(256, Z12, Z4)
	AXPY16(320, Z13, Z5)
	AXPY16(384, Z14, Z6)
	AXPY16(448, Z8, Z7)
	RUNNEXT(zrun128k)
zrun128zero:
	MOVQ	R13, R10
zrun128done:
	VMOVUPS	Z0, (DI)
	VMOVUPS	Z1, 64(DI)
	VMOVUPS	Z2, 128(DI)
	VMOVUPS	Z3, 192(DI)
	VMOVUPS	Z4, 256(DI)
	VMOVUPS	Z5, 320(DI)
	VMOVUPS	Z6, 384(DI)
	VMOVUPS	Z7, 448(DI)
	ADDQ	$512, DI
	ADDQ	$512, BX
	SUBQ	$128, CX
	JMP	zrun128

zrun64:
	TESTQ	CX, CX
	JLE	zrunRet
	VMOVUPS	(DI), Z0
	VMOVUPS	64(DI), Z1
	VMOVUPS	128(DI), Z2
	VMOVUPS	192(DI), Z3
	MOVQ	AX, R11
	MOVQ	BX, SI
	XORQ	R13, R13
zrun64k:
	RUNSTEP(zrun64done, zrun64zero, Z15)
	AXPY16(0, Z8, Z0)
	AXPY16(64, Z9, Z1)
	AXPY16(128, Z10, Z2)
	AXPY16(192, Z11, Z3)
	RUNNEXT(zrun64k)
zrun64zero:
	MOVQ	R13, R10
zrun64done:
	VMOVUPS	Z0, (DI)
	VMOVUPS	Z1, 64(DI)
	VMOVUPS	Z2, 128(DI)
	VMOVUPS	Z3, 192(DI)

zrunRet:
	MOVQ	R10, ret+56(FP)
	VZEROUPPER
	RET

// The Dot family keeps the canonical order of Dot in tensor.go: per output,
// partial j sums the products at indices i ≡ j (mod 4) — the four lanes of
// one 128-bit accumulator — the partials combine as (s0+s1)+(s2+s3), which is
// what two rounds of VHADDPS compute, and the len%4 tail is added one
// product at a time. A single such sum is bound by the latency of its add
// chain, so the speed comes from computing several outputs at once, two to a
// YMM register, one per 128-bit lane (VHADDPS works within each lane, so
// both go through the canonical combine at once): dotRows1AVX broadcasts
// a[i:i+4] to both lanes and computes eight outputs per pass, b rows j…j+3 in
// the lower lanes and j+4…j+7 in the upper; dotRows2AVX broadcasts each b
// load instead and carries a second a row in the upper lanes, so its eight
// columns per pass take eight accumulators, sixteen outputs on eight
// independent add chains (dotRows1AVX's pass has four).
//
// Both routines walk b by row cursors: BX is the first row of the current
// group of four plus the byte offset into the row, and the other three rows
// are (BX)(R9*1), (BX)(R9*2), (BX)(R12*1) with R9 the row length in bytes and
// R12 three times that. The eight-wide pass has a second such cursor four
// rows below BX: DX in dotRows1AVX, R14 in dotRows2AVX (R14 is free in
// ABI0 assembly; the wrapper the compiler puts around the call restores it).

// func dotRows1AVX(dst *float32, n int, a, b *float32, k int)
//
// dst[j] = Dot(a[0:k], b[j*k : (j+1)*k]) for j in [0, n): eight columns per
// pass (Y8 is a[i:i+4] in both lanes; accumulator m holds column j+m in its
// lower lane and j+4+m in its upper), then one pass of four and single
// columns for the last 1–7. Each step of a pass also prefetches two cache
// lines of the next pass's eight rows (R13, contiguous), for a b larger than
// the caches (the 4 MB logits matrix at batch 1); PREFETCHT0 past the end of
// b is a hint that never faults.
TEXT ·dotRows1AVX(SB), NOSPLIT, $0-40
	MOVQ	dst+0(FP), DI
	MOVQ	n+8(FP), CX
	MOVQ	a+16(FP), AX
	MOVQ	b+24(FP), R8
	MOVQ	k+32(FP), R10
	MOVQ	R10, R9
	SHLQ	$2, R9
	LEAQ	(R9)(R9*2), R12
	MOVQ	R10, R11           // R11 = bytes in the 4-wide prefix of a row
	ANDQ	$-4, R11
	SHLQ	$2, R11
	SHLQ	$2, R10            // R10 = bytes in a row

d1col8:
	CMPQ	CX, $8
	JL	d1col4
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3
	MOVQ	R8, BX
	LEAQ	(R8)(R9*4), DX
	LEAQ	(R8)(R9*8), R13
	XORQ	SI, SI
d1col8k:
	CMPQ	SI, R11
	JGE	d1col8sum
	PREFETCHT0	(R13)(SI*8)
	PREFETCHT0	64(R13)(SI*8)
	VBROADCASTF128	(AX)(SI*1), Y8
	VMOVUPS	(BX), X4
	VINSERTF128	$1, (DX), Y4, Y4
	VMULPS	Y4, Y8, Y4
	VADDPS	Y4, Y0, Y0
	VMOVUPS	(BX)(R9*1), X5
	VINSERTF128	$1, (DX)(R9*1), Y5, Y5
	VMULPS	Y5, Y8, Y5
	VADDPS	Y5, Y1, Y1
	VMOVUPS	(BX)(R9*2), X6
	VINSERTF128	$1, (DX)(R9*2), Y6, Y6
	VMULPS	Y6, Y8, Y6
	VADDPS	Y6, Y2, Y2
	VMOVUPS	(BX)(R12*1), X7
	VINSERTF128	$1, (DX)(R12*1), Y7, Y7
	VMULPS	Y7, Y8, Y7
	VADDPS	Y7, Y3, Y3
	ADDQ	$16, SI
	ADDQ	$16, BX
	ADDQ	$16, DX
	JMP	d1col8k
d1col8sum:
	VHADDPS	Y1, Y0, Y0
	VHADDPS	Y3, Y2, Y2
	VHADDPS	Y2, Y0, Y0         // lane m of the lower half: column j+m; of the upper: j+4+m
d1col8tail:
	CMPQ	SI, R10
	JGE	d1col8done
	VBROADCASTSS	(AX)(SI*1), Y8
	VMOVSS	(BX), X4
	VINSERTPS	$0x10, (BX)(R9*1), X4, X4
	VINSERTPS	$0x20, (BX)(R9*2), X4, X4
	VINSERTPS	$0x30, (BX)(R12*1), X4, X4
	VMOVSS	(DX), X5
	VINSERTPS	$0x10, (DX)(R9*1), X5, X5
	VINSERTPS	$0x20, (DX)(R9*2), X5, X5
	VINSERTPS	$0x30, (DX)(R12*1), X5, X5
	VINSERTF128	$1, X5, Y4, Y4
	VMULPS	Y4, Y8, Y4
	VADDPS	Y4, Y0, Y0
	ADDQ	$4, SI
	ADDQ	$4, BX
	ADDQ	$4, DX
	JMP	d1col8tail
d1col8done:
	VMOVUPS	Y0, (DI)
	ADDQ	$32, DI
	LEAQ	(R8)(R9*8), R8
	SUBQ	$8, CX
	JMP	d1col8

d1col4:
	CMPQ	CX, $4
	JL	d1col1
	VXORPS	X0, X0, X0
	VXORPS	X1, X1, X1
	VXORPS	X2, X2, X2
	VXORPS	X3, X3, X3
	MOVQ	R8, BX
	XORQ	SI, SI
d1col4k:
	CMPQ	SI, R11
	JGE	d1col4sum
	VMOVUPS	(AX)(SI*1), X8
	VMULPS	(BX), X8, X4
	VADDPS	X4, X0, X0
	VMULPS	(BX)(R9*1), X8, X5
	VADDPS	X5, X1, X1
	VMULPS	(BX)(R9*2), X8, X6
	VADDPS	X6, X2, X2
	VMULPS	(BX)(R12*1), X8, X7
	VADDPS	X7, X3, X3
	ADDQ	$16, SI
	ADDQ	$16, BX
	JMP	d1col4k
d1col4sum:
	VHADDPS	X1, X0, X0
	VHADDPS	X3, X2, X2
	VHADDPS	X2, X0, X0         // lane j: (s0+s1)+(s2+s3) of column j
d1col4tail:
	CMPQ	SI, R10
	JGE	d1col4done
	VBROADCASTSS	(AX)(SI*1), X8
	VMOVSS	(BX), X4
	VINSERTPS	$0x10, (BX)(R9*1), X4, X4
	VINSERTPS	$0x20, (BX)(R9*2), X4, X4
	VINSERTPS	$0x30, (BX)(R12*1), X4, X4
	VMULPS	X4, X8, X4
	VADDPS	X4, X0, X0
	ADDQ	$4, SI
	ADDQ	$4, BX
	JMP	d1col4tail
d1col4done:
	VMOVUPS	X0, (DI)
	ADDQ	$16, DI
	LEAQ	(R8)(R9*4), R8
	SUBQ	$4, CX
	JMP	d1col4

d1col1:
	TESTQ	CX, CX
	JLE	d1ret
	VXORPS	X0, X0, X0
	MOVQ	R8, BX
	XORQ	SI, SI
d1col1k:
	CMPQ	SI, R11
	JGE	d1col1sum
	VMOVUPS	(AX)(SI*1), X8
	VMULPS	(BX), X8, X4
	VADDPS	X4, X0, X0
	ADDQ	$16, SI
	ADDQ	$16, BX
	JMP	d1col1k
d1col1sum:
	VHADDPS	X0, X0, X0
	VHADDPS	X0, X0, X0
d1col1tail:
	CMPQ	SI, R10
	JGE	d1col1done
	VMOVSS	(AX)(SI*1), X8
	VMULSS	(BX), X8, X4
	VADDSS	X4, X0, X0
	ADDQ	$4, SI
	ADDQ	$4, BX
	JMP	d1col1tail
d1col1done:
	VMOVSS	X0, (DI)
	ADDQ	$4, DI
	ADDQ	R9, R8
	DECQ	CX
	JMP	d1col1

d1ret:
	VZEROUPPER
	RET

// func dotRows2AVX(dst0, dst1 *float32, n int, a0, a1, b *float32, k int)
//
// dst0[j] = Dot(a0, b row j) and dst1[j] = Dot(a1, b row j) for j in [0, n).
// Lower 128-bit lanes hold a0's sums, upper lanes a1's: Y8 is
// a0[i:i+4] | a1[i:i+4], each b load is broadcast to both lanes, and
// VHADDPS works within each lane, so both rows go through the canonical
// combine at once. Eight columns per pass (accumulator m holds column j+m,
// Y0–Y3 from BX's rows and Y4–Y7 from R14's), then one pass of four and
// single columns for the last 1–7. b is a block matMulABTRange keeps in L1,
// so there is no prefetch.
TEXT ·dotRows2AVX(SB), NOSPLIT, $0-56
	MOVQ	dst0+0(FP), DI
	MOVQ	dst1+8(FP), DX
	MOVQ	n+16(FP), CX
	MOVQ	a0+24(FP), AX
	MOVQ	a1+32(FP), R13
	MOVQ	b+40(FP), R8
	MOVQ	k+48(FP), R10
	MOVQ	R10, R9
	SHLQ	$2, R9
	LEAQ	(R9)(R9*2), R12
	MOVQ	R10, R11
	ANDQ	$-4, R11
	SHLQ	$2, R11
	SHLQ	$2, R10

d2col8:
	CMPQ	CX, $8
	JL	d2col4
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3
	VXORPS	Y4, Y4, Y4
	VXORPS	Y5, Y5, Y5
	VXORPS	Y6, Y6, Y6
	VXORPS	Y7, Y7, Y7
	MOVQ	R8, BX
	LEAQ	(R8)(R9*4), R14
	XORQ	SI, SI
d2col8k:
	CMPQ	SI, R11
	JGE	d2col8sum
	VMOVUPS	(AX)(SI*1), X8
	VINSERTF128	$1, (R13)(SI*1), Y8, Y8
	VBROADCASTF128	(BX), Y9
	VMULPS	Y9, Y8, Y9
	VADDPS	Y9, Y0, Y0
	VBROADCASTF128	(BX)(R9*1), Y10
	VMULPS	Y10, Y8, Y10
	VADDPS	Y10, Y1, Y1
	VBROADCASTF128	(BX)(R9*2), Y11
	VMULPS	Y11, Y8, Y11
	VADDPS	Y11, Y2, Y2
	VBROADCASTF128	(BX)(R12*1), Y12
	VMULPS	Y12, Y8, Y12
	VADDPS	Y12, Y3, Y3
	VBROADCASTF128	(R14), Y9
	VMULPS	Y9, Y8, Y9
	VADDPS	Y9, Y4, Y4
	VBROADCASTF128	(R14)(R9*1), Y10
	VMULPS	Y10, Y8, Y10
	VADDPS	Y10, Y5, Y5
	VBROADCASTF128	(R14)(R9*2), Y11
	VMULPS	Y11, Y8, Y11
	VADDPS	Y11, Y6, Y6
	VBROADCASTF128	(R14)(R12*1), Y12
	VMULPS	Y12, Y8, Y12
	VADDPS	Y12, Y7, Y7
	ADDQ	$16, SI
	ADDQ	$16, BX
	ADDQ	$16, R14
	JMP	d2col8k
d2col8sum:
	VHADDPS	Y1, Y0, Y0
	VHADDPS	Y3, Y2, Y2
	VHADDPS	Y2, Y0, Y0         // lane m: column j+m, a0's in the lower half, a1's in the upper
	VHADDPS	Y5, Y4, Y4
	VHADDPS	Y7, Y6, Y6
	VHADDPS	Y6, Y4, Y4         // lane m: column j+4+m
d2col8tail:
	CMPQ	SI, R10
	JGE	d2col8done
	VBROADCASTSS	(AX)(SI*1), X8
	VBROADCASTSS	(R13)(SI*1), X9
	VINSERTF128	$1, X9, Y8, Y8
	VMOVSS	(BX), X9
	VINSERTPS	$0x10, (BX)(R9*1), X9, X9
	VINSERTPS	$0x20, (BX)(R9*2), X9, X9
	VINSERTPS	$0x30, (BX)(R12*1), X9, X9
	VINSERTF128	$1, X9, Y9, Y9
	VMULPS	Y9, Y8, Y9
	VADDPS	Y9, Y0, Y0
	VMOVSS	(R14), X10
	VINSERTPS	$0x10, (R14)(R9*1), X10, X10
	VINSERTPS	$0x20, (R14)(R9*2), X10, X10
	VINSERTPS	$0x30, (R14)(R12*1), X10, X10
	VINSERTF128	$1, X10, Y10, Y10
	VMULPS	Y10, Y8, Y10
	VADDPS	Y10, Y4, Y4
	ADDQ	$4, SI
	ADDQ	$4, BX
	ADDQ	$4, R14
	JMP	d2col8tail
d2col8done:
	VMOVUPS	X0, (DI)
	VMOVUPS	X4, 16(DI)
	VEXTRACTF128	$1, Y0, (DX)
	VEXTRACTF128	$1, Y4, 16(DX)
	ADDQ	$32, DI
	ADDQ	$32, DX
	LEAQ	(R8)(R9*8), R8
	SUBQ	$8, CX
	JMP	d2col8

d2col4:
	CMPQ	CX, $4
	JL	d2col1
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
	VXORPS	Y2, Y2, Y2
	VXORPS	Y3, Y3, Y3
	MOVQ	R8, BX
	XORQ	SI, SI
d2col4k:
	CMPQ	SI, R11
	JGE	d2col4sum
	VMOVUPS	(AX)(SI*1), X8
	VINSERTF128	$1, (R13)(SI*1), Y8, Y8
	VBROADCASTF128	(BX), Y4
	VMULPS	Y4, Y8, Y4
	VADDPS	Y4, Y0, Y0
	VBROADCASTF128	(BX)(R9*1), Y5
	VMULPS	Y5, Y8, Y5
	VADDPS	Y5, Y1, Y1
	VBROADCASTF128	(BX)(R9*2), Y6
	VMULPS	Y6, Y8, Y6
	VADDPS	Y6, Y2, Y2
	VBROADCASTF128	(BX)(R12*1), Y7
	VMULPS	Y7, Y8, Y7
	VADDPS	Y7, Y3, Y3
	ADDQ	$16, SI
	ADDQ	$16, BX
	JMP	d2col4k
d2col4sum:
	VHADDPS	Y1, Y0, Y0
	VHADDPS	Y3, Y2, Y2
	VHADDPS	Y2, Y0, Y0
d2col4tail:
	CMPQ	SI, R10
	JGE	d2col4done
	VBROADCASTSS	(AX)(SI*1), X8
	VBROADCASTSS	(R13)(SI*1), X9
	VINSERTF128	$1, X9, Y8, Y8
	VMOVSS	(BX), X4
	VINSERTPS	$0x10, (BX)(R9*1), X4, X4
	VINSERTPS	$0x20, (BX)(R9*2), X4, X4
	VINSERTPS	$0x30, (BX)(R12*1), X4, X4
	VINSERTF128	$1, X4, Y4, Y4
	VMULPS	Y4, Y8, Y4
	VADDPS	Y4, Y0, Y0
	ADDQ	$4, SI
	ADDQ	$4, BX
	JMP	d2col4tail
d2col4done:
	VMOVUPS	X0, (DI)
	VEXTRACTF128	$1, Y0, (DX)
	ADDQ	$16, DI
	ADDQ	$16, DX
	LEAQ	(R8)(R9*4), R8
	SUBQ	$4, CX
	JMP	d2col4

d2col1:
	TESTQ	CX, CX
	JLE	d2ret
	VXORPS	Y0, Y0, Y0
	MOVQ	R8, BX
	XORQ	SI, SI
d2col1k:
	CMPQ	SI, R11
	JGE	d2col1sum
	VMOVUPS	(AX)(SI*1), X8
	VINSERTF128	$1, (R13)(SI*1), Y8, Y8
	VBROADCASTF128	(BX), Y4
	VMULPS	Y4, Y8, Y4
	VADDPS	Y4, Y0, Y0
	ADDQ	$16, SI
	ADDQ	$16, BX
	JMP	d2col1k
d2col1sum:
	VHADDPS	Y0, Y0, Y0
	VHADDPS	Y0, Y0, Y0
	VEXTRACTF128	$1, Y0, X1     // X0 = a0's sum, X1 = a1's
d2col1tail:
	CMPQ	SI, R10
	JGE	d2col1done
	VMOVSS	(BX), X4
	VMOVSS	(AX)(SI*1), X8
	VMULSS	X4, X8, X5
	VADDSS	X5, X0, X0
	VMOVSS	(R13)(SI*1), X9
	VMULSS	X4, X9, X6
	VADDSS	X6, X1, X1
	ADDQ	$4, SI
	ADDQ	$4, BX
	JMP	d2col1tail
d2col1done:
	VMOVSS	X0, (DI)
	VMOVSS	X1, (DX)
	ADDQ	$4, DI
	ADDQ	$4, DX
	ADDQ	R9, R8
	DECQ	CX
	JMP	d2col1

d2ret:
	VZEROUPPER
	RET

// The exponent field of a float32, which is also the bit pattern of +Inf.
DATA expMask<>+0(SB)/4, $0x7f800000
GLOBL expMask<>(SB), RODATA|NOPTR, $4

// NONFINITE8(off, t, acc): acc |= all-ones in each lane of x[off:off+8] whose
// exponent field is all ones (±Inf, NaN). x AND the mask is ±0, a power of two
// or +Inf — never a NaN or a denormal — so the compare is exact and cheap.
#define NONFINITE8(off, t, acc) \
	VANDPS	off(SI), Y15, t; \
	VCMPPS	$0, Y15, t, t; \
	VORPS	t, acc, acc

// func allFiniteAVX(x *float32, n int) bool
//
// allFiniteGo over n elements, n a positive multiple of 8. A predicate: it
// returns the boolean the Go loop returns, by a different test.
TEXT ·allFiniteAVX(SB), NOSPLIT, $0-17
	MOVQ	x+0(FP), SI
	MOVQ	n+8(FP), CX
	VBROADCASTSS	expMask<>(SB), Y15
	VXORPS	Y0, Y0, Y0
	VXORPS	Y1, Y1, Y1
fin32:
	CMPQ	CX, $32
	JL	fin8
	NONFINITE8(0, Y2, Y0)
	NONFINITE8(32, Y3, Y1)
	NONFINITE8(64, Y4, Y0)
	NONFINITE8(96, Y5, Y1)
	ADDQ	$128, SI
	SUBQ	$32, CX
	JMP	fin32
fin8:
	TESTQ	CX, CX
	JLE	finDone
	NONFINITE8(0, Y2, Y0)
	ADDQ	$32, SI
	SUBQ	$8, CX
	JMP	fin8
finDone:
	VORPS	Y1, Y0, Y0
	VMOVMSKPS	Y0, AX
	TESTL	AX, AX
	SETEQ	ret+16(FP)
	VZEROUPPER
	RET

// func maxAVX(x *float32, n int) float32
//
// maxGo over n elements, n a positive multiple of 8, up to the sign of a zero
// result. Every lane starts at x[0] and keeps v > m ? v : m — VMAXPS with the
// element as its first source, which returns the second source, m, when
// either is NaN — so a NaN after x[0] is never taken and a NaN x[0] is never
// left. The lanes then combine the same way; only where the maximum is zero
// can they have met +0 and −0 in another order than the Go loop does.
TEXT ·maxAVX(SB), NOSPLIT, $0-20
	MOVQ	x+0(FP), SI
	MOVQ	n+8(FP), CX
	VBROADCASTSS	(SI), Y0
	VMOVAPS	Y0, Y1
	VMOVAPS	Y0, Y2
	VMOVAPS	Y0, Y3
max32:
	CMPQ	CX, $32
	JL	max8
	VMOVUPS	(SI), Y4
	VMAXPS	Y0, Y4, Y0
	VMOVUPS	32(SI), Y5
	VMAXPS	Y1, Y5, Y1
	VMOVUPS	64(SI), Y6
	VMAXPS	Y2, Y6, Y2
	VMOVUPS	96(SI), Y7
	VMAXPS	Y3, Y7, Y3
	ADDQ	$128, SI
	SUBQ	$32, CX
	JMP	max32
max8:
	TESTQ	CX, CX
	JLE	maxDone
	VMOVUPS	(SI), Y4
	VMAXPS	Y0, Y4, Y0
	ADDQ	$32, SI
	SUBQ	$8, CX
	JMP	max8
maxDone:
	VMAXPS	Y1, Y0, Y0
	VMAXPS	Y3, Y2, Y2
	VMAXPS	Y2, Y0, Y0
	VEXTRACTF128	$1, Y0, X1
	VMAXPS	X1, X0, X0
	VPERMILPS	$0x4e, X0, X1
	VMAXPS	X1, X0, X0
	VPERMILPS	$0xb1, X0, X1
	VMAXPS	X1, X0, X0
	VMOVSS	X0, ret+16(FP)
	VZEROUPPER
	RET

// HADD16(b, a, dst): VHADDPS b, a, dst at sixteen lanes, which VHADDPS has no
// encoding for. Within each 128-bit lane dst = [a0+a1, a2+a3, b0+b1, b2+b3];
// VSHUFPS gathers the even and the odd elements of the pairs and one VADDPS
// adds them, the even element first, as VHADDPS does. Z14 and Z15 are
// clobbered.
#define HADD16(b, a, dst) \
	VSHUFPS	$0x88, b, a, Z14; \
	VSHUFPS	$0xdd, b, a, Z15; \
	VADDPS	Z15, Z14, dst

// func dotRows4AVX512(dst *float32, dstride, n int, a, b *float32, k int)
//
// dst[r*dstride+j] = Dot(a row r, b row j) for r in [0, 4) and j in [0, n),
// n a positive multiple of 8, a holding four rows of k elements back to
// back: Z8 is a0[i:i+4] | a1[i:i+4] | a2[i:i+4] | a3[i:i+4], so each b load
// is one VBROADCASTF32X4 into all four lanes and accumulator m (Z0–Z7)
// holds column j+m of all four rows. HADD16 combines them as dotRows2AVX's
// VHADDPS do, and the len%4 tail is added to the combined sums the same
// way, so every output takes the same operations in the same order, with
// the same operands first. A combined register's lane r is row r's four
// columns. b walks by row cursors as in dotRows2AVX (BX, R14); a by AX,
// which steps with them, and its rows are (AX)(R9*r) with R9 the row
// length in bytes.
TEXT ·dotRows4AVX512(SB), NOSPLIT, $0-48
	MOVQ	dst+0(FP), DI
	MOVQ	dstride+8(FP), R13
	SHLQ	$2, R13
	MOVQ	n+16(FP), CX
	MOVQ	a+24(FP), DX
	MOVQ	b+32(FP), R8
	MOVQ	k+40(FP), R10
	MOVQ	R10, R9
	SHLQ	$2, R9
	LEAQ	(R9)(R9*2), R12
	MOVQ	R10, R11
	ANDQ	$-4, R11
	SHLQ	$2, R11
	SHLQ	$2, R10
	MOVL	$0x00f0, BX
	KMOVW	BX, K1             // lane 1
	MOVL	$0x0f00, BX
	KMOVW	BX, K2             // lane 2
	MOVL	$0xf000, BX
	KMOVW	BX, K3             // lane 3

z4col8:
	TESTQ	CX, CX
	JLE	z4ret
	VXORPS	Z0, Z0, Z0
	VXORPS	Z1, Z1, Z1
	VXORPS	Z2, Z2, Z2
	VXORPS	Z3, Z3, Z3
	VXORPS	Z4, Z4, Z4
	VXORPS	Z5, Z5, Z5
	VXORPS	Z6, Z6, Z6
	VXORPS	Z7, Z7, Z7
	MOVQ	DX, AX
	MOVQ	R8, BX
	LEAQ	(R8)(R9*4), R14
	XORQ	SI, SI
z4col8k:
	CMPQ	SI, R11
	JGE	z4col8sum
	VMOVUPS	(AX), X8
	VINSERTF32X4	$1, (AX)(R9*1), Z8, Z8
	VINSERTF32X4	$2, (AX)(R9*2), Z8, Z8
	VINSERTF32X4	$3, (AX)(R12*1), Z8, Z8
	VBROADCASTF32X4	(BX), Z9
	VMULPS	Z9, Z8, Z9
	VADDPS	Z9, Z0, Z0
	VBROADCASTF32X4	(BX)(R9*1), Z10
	VMULPS	Z10, Z8, Z10
	VADDPS	Z10, Z1, Z1
	VBROADCASTF32X4	(BX)(R9*2), Z11
	VMULPS	Z11, Z8, Z11
	VADDPS	Z11, Z2, Z2
	VBROADCASTF32X4	(BX)(R12*1), Z12
	VMULPS	Z12, Z8, Z12
	VADDPS	Z12, Z3, Z3
	VBROADCASTF32X4	(R14), Z9
	VMULPS	Z9, Z8, Z9
	VADDPS	Z9, Z4, Z4
	VBROADCASTF32X4	(R14)(R9*1), Z10
	VMULPS	Z10, Z8, Z10
	VADDPS	Z10, Z5, Z5
	VBROADCASTF32X4	(R14)(R9*2), Z11
	VMULPS	Z11, Z8, Z11
	VADDPS	Z11, Z6, Z6
	VBROADCASTF32X4	(R14)(R12*1), Z12
	VMULPS	Z12, Z8, Z12
	VADDPS	Z12, Z7, Z7
	ADDQ	$16, SI
	ADDQ	$16, AX
	ADDQ	$16, BX
	ADDQ	$16, R14
	JMP	z4col8k
z4col8sum:
	HADD16(Z1, Z0, Z0)
	HADD16(Z3, Z2, Z2)
	HADD16(Z2, Z0, Z0)         // lane r: row r, columns j…j+3
	HADD16(Z5, Z4, Z4)
	HADD16(Z7, Z6, Z6)
	HADD16(Z6, Z4, Z4)         // lane r: row r, columns j+4…j+7
z4col8tail:
	CMPQ	SI, R10
	JGE	z4col8done
	VBROADCASTSS	(AX), Z8
	VBROADCASTSS	(AX)(R9*1), K1, Z8
	VBROADCASTSS	(AX)(R9*2), K2, Z8
	VBROADCASTSS	(AX)(R12*1), K3, Z8
	VMOVSS	(BX), X9
	VINSERTPS	$0x10, (BX)(R9*1), X9, X9
	VINSERTPS	$0x20, (BX)(R9*2), X9, X9
	VINSERTPS	$0x30, (BX)(R12*1), X9, X9
	VSHUFF32X4	$0, Z9, Z9, Z9     // b rows j…j+3 in every lane
	VMULPS	Z9, Z8, Z9
	VADDPS	Z9, Z0, Z0
	VMOVSS	(R14), X10
	VINSERTPS	$0x10, (R14)(R9*1), X10, X10
	VINSERTPS	$0x20, (R14)(R9*2), X10, X10
	VINSERTPS	$0x30, (R14)(R12*1), X10, X10
	VSHUFF32X4	$0, Z10, Z10, Z10
	VMULPS	Z10, Z8, Z10
	VADDPS	Z10, Z4, Z4
	ADDQ	$4, SI
	ADDQ	$4, AX
	ADDQ	$4, BX
	ADDQ	$4, R14
	JMP	z4col8tail
z4col8done:
	LEAQ	(DI)(R13*2), BX
	VMOVUPS	X0, (DI)
	VMOVUPS	X4, 16(DI)
	VEXTRACTF32X4	$1, Z0, (DI)(R13*1)
	VEXTRACTF32X4	$1, Z4, 16(DI)(R13*1)
	VEXTRACTF32X4	$2, Z0, (BX)
	VEXTRACTF32X4	$2, Z4, 16(BX)
	VEXTRACTF32X4	$3, Z0, (BX)(R13*1)
	VEXTRACTF32X4	$3, Z4, 16(BX)(R13*1)
	ADDQ	$32, DI
	LEAQ	(R8)(R9*8), R8
	SUBQ	$8, CX
	JMP	z4col8

z4ret:
	VZEROUPPER
	RET
