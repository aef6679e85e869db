//go:build amd64

#include "textflag.h"

DATA f16max<>+0(SB)/4, $0x477fe000   // 65504, the largest finite half
DATA f16min<>+0(SB)/4, $0xc77fe000   // -65504
DATA f32sign<>+0(SB)/4, $0x80000000
DATA f32qnan<>+0(SB)/4, $0x7fc00000  // what ToFloat32(FromFloat32(NaN)) is
GLOBL f16max<>(SB), RODATA|NOPTR, $4
GLOBL f16min<>(SB), RODATA|NOPTR, $4
GLOBL f32sign<>(SB), RODATA|NOPTR, $4
GLOBL f32qnan<>(SB), RODATA|NOPTR, $4

// ROUNDTRIP leaves in Y0 the wire crossing of the eight floats at mem
// (crossed in half.go), given F, 1/F, ±65504, the sign mask and the quiet
// NaN broadcast in Y15…Y10; it clobbers Y1 and Y2. In order: y = F·x; Y1 =
// the NaN lanes (y unordered with itself); Y2 = sign(y)|0x7fc00000; clamp y
// to ±65504; convert down and up; ·1/F; blend Y2 into the NaN lanes. The
// clamp comes before the conversion because that is where FromFloat32
// followed by the saturation step sends everything above 65504, Inf included
// (65504 < |y| < 65520 rounds down to it, the rest overflows and is pulled
// back). VCVTPS2PH with imm8 = 0 rounds to nearest even and keeps subnormal
// halves whatever MXCSR says; VCVTPH2PS is exact. NaN lanes are taken from y
// itself and overwritten last, so neither the NaN behaviour of VMINPS/VMAXPS
// nor the payload bits VCVTPS2PH would keep reach the result.
#define ROUNDTRIP(mem) \
	VMULPS	mem, Y15, Y0; \
	VCMPPS	$3, Y0, Y0, Y1; \
	VANDPS	Y11, Y0, Y2; \
	VORPS	Y10, Y2, Y2; \
	VMINPS	Y13, Y0, Y0; \
	VMAXPS	Y12, Y0, Y0; \
	VCVTPS2PH	$0, Y0, X0; \
	VCVTPH2PS	X0, Y0; \
	VMULPS	Y14, Y0, Y0; \
	VBLENDVPS	Y1, Y2, Y0, Y0

// func roundTripF16C(x *float32, n int, factor, inv float32)
//
// roundTripGo, eight elements per iteration; n is a positive multiple of 8.
TEXT ·roundTripF16C(SB), NOSPLIT, $0-24
	MOVQ	x+0(FP), DI
	MOVQ	n+8(FP), CX
	VBROADCASTSS	factor+16(FP), Y15
	VBROADCASTSS	inv+20(FP), Y14
	VBROADCASTSS	f16max<>(SB), Y13
	VBROADCASTSS	f16min<>(SB), Y12
	VBROADCASTSS	f32sign<>(SB), Y11
	VBROADCASTSS	f32qnan<>(SB), Y10
loop:
	ROUNDTRIP((DI))
	VMOVUPS	Y0, (DI)
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	loop
	VZEROUPPER
	RET

// func addRoundTripF16C(dst, src *float32, n int, factor, inv float32)
//
// addRoundTripGo, eight elements per iteration; n is a positive multiple of
// 8. The crossing is computed from src in registers and never stored back;
// dst is VADDPS's first source, so a NaN already in dst survives (quieted)
// whatever src holds, as in tensor's addAVX.
TEXT ·addRoundTripF16C(SB), NOSPLIT, $0-32
	MOVQ	dst+0(FP), DI
	MOVQ	src+8(FP), SI
	MOVQ	n+16(FP), CX
	VBROADCASTSS	factor+24(FP), Y15
	VBROADCASTSS	inv+28(FP), Y14
	VBROADCASTSS	f16max<>(SB), Y13
	VBROADCASTSS	f16min<>(SB), Y12
	VBROADCASTSS	f32sign<>(SB), Y11
	VBROADCASTSS	f32qnan<>(SB), Y10
addloop:
	ROUNDTRIP((SI))
	VMOVUPS	(DI), Y3
	VADDPS	Y0, Y3, Y3              // dst + crossed(src)
	VMOVUPS	Y3, (DI)
	ADDQ	$32, DI
	ADDQ	$32, SI
	SUBQ	$8, CX
	JNZ	addloop
	VZEROUPPER
	RET
