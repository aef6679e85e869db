//go:build amd64

#include "textflag.h"

// func adamAVX(value, grad *float32, m, v *float64, n int, k *adamConsts, lr float32)
//
// adamGo, four elements per iteration in float64 lanes; n is a positive
// multiple of 4. Every operation of the Go loop appears once, in its order
// and on its operands: conversions, multiplies, adds, divides and the square
// root are all correctly rounded by IEEE 754, and nothing is fused (VMULPD
// then VADDPD, never FMA) or strength-reduced (m/bc1 stays a division), so
// each lane holds what the scalar loop computes.
TEXT ·adamAVX(SB), NOSPLIT, $0-52
	MOVQ	value+0(FP), DI
	MOVQ	grad+8(FP), SI
	MOVQ	m+16(FP), R8
	MOVQ	v+24(FP), R9
	MOVQ	n+32(FP), CX
	MOVQ	k+40(FP), AX
	VBROADCASTSS	lr+48(FP), X15
	VBROADCASTSD	0(AX), Y14      // beta1
	VBROADCASTSD	8(AX), Y13      // 1-beta1
	VBROADCASTSD	16(AX), Y12     // beta2
	VBROADCASTSD	24(AX), Y11     // 1-beta2
	VBROADCASTSD	32(AX), Y10     // bc1
	VBROADCASTSD	40(AX), Y9      // bc2
	VBROADCASTSD	48(AX), Y8      // eps
	VBROADCASTSD	56(AX), Y7      // wd
loop:
	VCVTPS2PD	(SI), Y0            // g
	VMULPD	(R8), Y14, Y1           // beta1·m
	VMULPD	Y0, Y13, Y2             // (1-beta1)·g
	VADDPD	Y2, Y1, Y1
	VMOVUPD	Y1, (R8)                // m
	VMULPD	(R9), Y12, Y3           // beta2·v
	VMULPD	Y0, Y11, Y4             // (1-beta2)·g
	VMULPD	Y0, Y4, Y4              // ·g
	VADDPD	Y4, Y3, Y3
	VMOVUPD	Y3, (R9)                // v
	VDIVPD	Y10, Y1, Y1             // mHat = m/bc1
	VDIVPD	Y9, Y3, Y3              // vHat = v/bc2
	VSQRTPD	Y3, Y3
	VADDPD	Y8, Y3, Y3              // sqrt(vHat)+eps
	VDIVPD	Y3, Y1, Y1
	VCVTPS2PD	(DI), Y5
	VMULPD	Y5, Y7, Y5              // wd·value
	VADDPD	Y5, Y1, Y1              // upd
	VCVTPD2PSY	Y1, X1
	VMULPS	X1, X15, X1             // lr·float32(upd)
	VMOVUPS	(DI), X6
	VSUBPS	X1, X6, X6
	VMOVUPS	X6, (DI)
	ADDQ	$16, DI
	ADDQ	$16, SI
	ADDQ	$32, R8
	ADDQ	$32, R9
	SUBQ	$4, CX
	JNZ	loop
	VZEROUPPER
	RET
