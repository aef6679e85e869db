//go:build amd64

#include "textflag.h"

// |x| mask and 2⁻¹²⁶ (the smallest normal float32), for the flush rule.
DATA adamAbs<>+0(SB)/4, $0x7fffffff
GLOBL adamAbs<>(SB), RODATA|NOPTR, $4
DATA adamMinNormal<>+0(SB)/4, $0x00800000
GLOBL adamMinNormal<>(SB), RODATA|NOPTR, $4

// FLUSH(x): x = +0 where |x| < 2⁻¹²⁶ (ordered compare: a NaN lane is kept).
// Y6 is the |x| mask, Y5 the threshold, Y2 scratch.
#define FLUSH(x) \
	VANDPS	Y6, x, Y2; \
	VCMPPS	$0x11, Y5, Y2, Y2; \
	VANDNPS	x, Y2, x

// func adamAVX(value, grad, m, v *float32, n int, k *adamConsts, lr float32)
//
// adamGo, eight float32 elements per iteration; n is a positive multiple of
// 8. Every operation of the Go loop appears once, in its order and on its
// operands: multiplies, adds, the divide and the square root are all
// correctly rounded by IEEE 754, and nothing is fused (VMULPS then VADDPS,
// never FMA) or strength-reduced beyond what the definition itself does (the
// bias corrections are already reciprocals there), so each lane holds what
// the scalar loop computes.
TEXT ·adamAVX(SB), NOSPLIT, $0-52
	MOVQ	value+0(FP), DI
	MOVQ	grad+8(FP), SI
	MOVQ	m+16(FP), R8
	MOVQ	v+24(FP), R9
	MOVQ	n+32(FP), CX
	MOVQ	k+40(FP), AX
	VBROADCASTSS	lr+48(FP), Y15
	VBROADCASTSS	0(AX), Y14      // beta1
	VBROADCASTSS	4(AX), Y13      // 1-beta1
	VBROADCASTSS	8(AX), Y12      // beta2
	VBROADCASTSS	12(AX), Y11     // 1-beta2
	VBROADCASTSS	16(AX), Y10     // r1
	VBROADCASTSS	20(AX), Y9      // r2
	VBROADCASTSS	24(AX), Y8      // eps
	VBROADCASTSS	28(AX), Y7      // wd
	VBROADCASTSS	adamAbs<>(SB), Y6
	VBROADCASTSS	adamMinNormal<>(SB), Y5
loop:
	VMOVUPS	(SI), Y0                // g
	VMULPS	(R8), Y14, Y1           // beta1·m
	VMULPS	Y0, Y13, Y2             // (1-beta1)·g
	VADDPS	Y2, Y1, Y1
	FLUSH(Y1)
	VMOVUPS	Y1, (R8)                // m
	VMULPS	(R9), Y12, Y3           // beta2·v
	VMULPS	Y0, Y11, Y2             // (1-beta2)·g
	VMULPS	Y0, Y2, Y2              // ·g
	VADDPS	Y2, Y3, Y3
	FLUSH(Y3)
	VMOVUPS	Y3, (R9)                // v
	VMULPS	Y10, Y1, Y1             // m·r1
	VMULPS	Y9, Y3, Y3              // v·r2
	VSQRTPS	Y3, Y3
	VADDPS	Y8, Y3, Y3              // sqrt(v·r2)+eps
	VDIVPS	Y3, Y1, Y1
	VMOVUPS	(DI), Y4
	VMULPS	Y4, Y7, Y2              // wd·value
	VADDPS	Y2, Y1, Y1              // upd
	VMULPS	Y1, Y15, Y1             // lr·upd
	VSUBPS	Y1, Y4, Y4
	VMOVUPS	Y4, (DI)
	ADDQ	$32, DI
	ADDQ	$32, SI
	ADDQ	$32, R8
	ADDQ	$32, R9
	SUBQ	$8, CX
	JNZ	loop
	VZEROUPPER
	RET
