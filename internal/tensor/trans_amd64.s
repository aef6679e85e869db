//go:build amd64

#include "textflag.h"

// Transcendental kernels: exp32, tanh32 and sigmoid32 of trans.go on eight
// lanes. Every multiply and add of the Go definitions appears here once, in
// the same order, each rounded on its own (VMULPS then VADDPS/VSUBPS, never
// FMA; VDIVPS is the correctly rounded IEEE quotient Go's / is). The Go
// definitions branch on NaN and on the clamps; here every lane runs the full
// computation and the special results are blended in afterwards — a lane's
// discarded arithmetic may overflow or produce NaN, which is harmless with
// exceptions masked. Constants come from transTab (R8), one 32-byte row of
// eight copies each, in the order of the offsets below.

#define LOG2E     0(R8)
#define MAGIC     32(R8)
#define LN2HI     64(R8)
#define LN2LO     96(R8)
#define EXPC5     128(R8)
#define EXPC4     160(R8)
#define EXPC3     192(R8)
#define EXPC2     224(R8)
#define EXPC1     256(R8)
#define EXPC0     288(R8)
#define ONE       320(R8)
#define EXPHI     352(R8)
#define EXPLO     384(R8)
#define INF       416(R8)
#define ABSMASK   448(R8)
#define SIGNBIT   480(R8)
#define TWO       512(R8)
#define TANHSMALL 544(R8)
#define TANHC4    576(R8)
#define TANHC3    608(R8)
#define TANHC2    640(R8)
#define TANHC1    672(R8)
#define TANHC0    704(R8)

// Comparison predicates of VCMPPS (ordered, quiet: false on NaN).
#define LT $0x11
#define GT $0x1E
#define UNORD $3

// EXP8(x, q): q = exp32(x) per lane; x is kept. Y12 is z (its low mantissa
// bits are n, shifted onto q's exponent at the end), Y13 n and then scratch,
// Y14 r.
#define EXP8(x, q) \
	VMULPS	LOG2E, x, Y12; \
	VADDPS	MAGIC, Y12, Y12; \
	VSUBPS	MAGIC, Y12, Y13; \
	VMULPS	LN2HI, Y13, Y14; \
	VSUBPS	Y14, x, Y14; \
	VMULPS	LN2LO, Y13, Y13; \
	VSUBPS	Y13, Y14, Y14; \
	VMOVUPS	EXPC5, q; \
	VMULPS	Y14, q, q; \
	VADDPS	EXPC4, q, q; \
	VMULPS	Y14, q, q; \
	VADDPS	EXPC3, q, q; \
	VMULPS	Y14, q, q; \
	VADDPS	EXPC2, q, q; \
	VMULPS	Y14, q, q; \
	VADDPS	EXPC1, q, q; \
	VMULPS	Y14, q, q; \
	VADDPS	EXPC0, q, q; \
	VMULPS	Y14, Y14, Y13; \
	VMULPS	Y13, q, q; \
	VADDPS	Y14, q, q; \
	VADDPS	ONE, q, q; \
	VPSLLD	$23, Y12, Y12; \
	VPADDD	Y12, q, q; \
	VCMPPS	GT, EXPHI, x, Y13; \
	VBLENDVPS	Y13, INF, q, q; \
	VCMPPS	LT, EXPLO, x, Y13; \
	VANDNPS	q, Y13, q; \
	VCMPPS	UNORD, x, x, Y13; \
	VBLENDVPS	Y13, x, q, q

// func expSumAVX2(dst, src *float32, n, dstep int, shift float32, tab *[transTabLen][8]uint32) float32
//
// Per block of eight: e = exp32(src − shift), stored at dst, added to the
// eight running partials (partial j sums the elements i ≡ j mod 8). The
// partials combine as ((p0+p4)+(p1+p5)) + ((p2+p6)+(p3+p7)): fold the upper
// 128-bit lane onto the lower, then two rounds of VHADDPS.
TEXT ·expSumAVX2(SB), NOSPLIT, $0-52
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	MOVQ	dstep+24(FP), R9
	VBROADCASTSS	shift+32(FP), Y11
	MOVQ	tab+40(FP), R8
	VXORPS	Y15, Y15, Y15
expSumLoop:
	VMOVUPS	(SI), Y0
	VSUBPS	Y11, Y0, Y0
	EXP8(Y0, Y1)
	VMOVUPS	Y1, (DI)
	VADDPS	Y1, Y15, Y15
	ADDQ	$32, SI
	ADDQ	R9, DI
	SUBQ	$8, CX
	JG	expSumLoop
	VEXTRACTF128	$1, Y15, X1
	VADDPS	X1, X15, X15
	VHADDPS	X15, X15, X15
	VHADDPS	X15, X15, X15
	VMOVSS	X15, ret+48(FP)
	VZEROUPPER
	RET

// func tanhAVX2(dst, src *float32, n int, tab *[transTabLen][8]uint32)
//
// Both branches of tanh32 are computed for every lane — 1 − 2/(exp32(2a)+1)
// into Y1, the odd polynomial into Y2 — and a < tanhSmall picks; then the
// sign of x goes back on and NaN lanes take x itself.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	MOVQ	tab+24(FP), R8
tanhLoop:
	VMOVUPS	(SI), Y0
	VANDPS	ABSMASK, Y0, Y3        // a
	VADDPS	Y3, Y3, Y4
	EXP8(Y4, Y1)
	VADDPS	ONE, Y1, Y1
	VMOVUPS	TWO, Y4
	VDIVPS	Y1, Y4, Y1
	VMOVUPS	ONE, Y4
	VSUBPS	Y1, Y4, Y1             // 1 − 2/(e+1)
	VMULPS	Y3, Y3, Y4             // s = a·a
	VMOVUPS	TANHC4, Y2
	VMULPS	Y4, Y2, Y2
	VADDPS	TANHC3, Y2, Y2
	VMULPS	Y4, Y2, Y2
	VADDPS	TANHC2, Y2, Y2
	VMULPS	Y4, Y2, Y2
	VADDPS	TANHC1, Y2, Y2
	VMULPS	Y4, Y2, Y2
	VADDPS	TANHC0, Y2, Y2
	VMULPS	Y4, Y2, Y2
	VMULPS	Y3, Y2, Y2
	VADDPS	Y3, Y2, Y2             // a + a·s·q
	VCMPPS	LT, TANHSMALL, Y3, Y4
	VBLENDVPS	Y4, Y2, Y1, Y1
	VANDPS	SIGNBIT, Y0, Y4
	VORPS	Y4, Y1, Y1
	VCMPPS	UNORD, Y0, Y0, Y4
	VBLENDVPS	Y4, Y0, Y1, Y1
	VMOVUPS	Y1, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JG	tanhLoop
	VZEROUPPER
	RET

// func sigmoidAVX2(dst, src *float32, n int, tab *[transTabLen][8]uint32)
//
// 1/(1 + exp32(−x)); lanes below expLo are zeroed, NaN lanes take x itself.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	MOVQ	tab+24(FP), R8
sigmoidLoop:
	VMOVUPS	(SI), Y0
	VXORPS	SIGNBIT, Y0, Y3
	EXP8(Y3, Y1)
	VADDPS	ONE, Y1, Y1
	VMOVUPS	ONE, Y4
	VDIVPS	Y1, Y4, Y1
	VCMPPS	LT, EXPLO, Y0, Y4
	VANDNPS	Y1, Y4, Y1
	VCMPPS	UNORD, Y0, Y0, Y4
	VBLENDVPS	Y4, Y0, Y1, Y1
	VMOVUPS	Y1, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JG	sigmoidLoop
	VZEROUPPER
	RET
