//go:build amd64

#include "textflag.h"

// func qdotSSE41(a *float32, codes *int8, scales *float32, n, chunk int) float32
//
// qdotGo's arithmetic, vectorized without reordering it: the sixteen strided
// partials are four XMM accumulators (X0..X3, lane j of X_g holding partial
// 4g+j), each 16-wide block issues four convert-multiply-accumulate groups,
// the combine tree (X0+X1)+(X2+X3) then ((c0+c1)+(c2+c3)) reproduces the
// canonical reduction exactly, the sub-16 tail runs scalar, and each chunk
// sum is scaled once into the running total in ascending chunk order.
TEXT ·qdotSSE41(SB), NOSPLIT, $0-44
	MOVQ	a+0(FP), SI
	MOVQ	codes+8(FP), DI
	MOVQ	scales+16(FP), DX
	MOVQ	n+24(FP), CX
	MOVQ	chunk+32(FP), R8
	XORPS	X7, X7             // running total

chunkLoop:
	TESTQ	CX, CX
	JLE	done
	MOVQ	R8, R9             // clen = min(chunk, remaining)
	CMPQ	R9, CX
	JLE	clenOK
	MOVQ	CX, R9
clenOK:
	MOVQ	R9, R10            // vectorized prefix = clen &^ 15
	ANDQ	$-16, R10
	XORPS	X0, X0
	XORPS	X1, X1
	XORPS	X2, X2
	XORPS	X3, X3
	XORQ	R11, R11           // element index within chunk

vec16:
	CMPQ	R11, R10
	JGE	vecDone
	MOVSS	(DI)(R11*1), X4    // 4 int8 codes (32-bit load)
	PMOVSXBD	X4, X4
	CVTPL2PS	X4, X4
	MOVUPS	(SI)(R11*4), X5
	MULPS	X5, X4
	ADDPS	X4, X0
	MOVSS	4(DI)(R11*1), X4
	PMOVSXBD	X4, X4
	CVTPL2PS	X4, X4
	MOVUPS	16(SI)(R11*4), X5
	MULPS	X5, X4
	ADDPS	X4, X1
	MOVSS	8(DI)(R11*1), X4
	PMOVSXBD	X4, X4
	CVTPL2PS	X4, X4
	MOVUPS	32(SI)(R11*4), X5
	MULPS	X5, X4
	ADDPS	X4, X2
	MOVSS	12(DI)(R11*1), X4
	PMOVSXBD	X4, X4
	CVTPL2PS	X4, X4
	MOVUPS	48(SI)(R11*4), X5
	MULPS	X5, X4
	ADDPS	X4, X3
	ADDQ	$16, R11
	JMP	vec16

vecDone:
	ADDPS	X1, X0             // lane j: p[j] + p[4+j]
	ADDPS	X3, X2             // lane j: p[8+j] + p[12+j]
	ADDPS	X2, X0             // lane j: c[j]
	MOVAPS	X0, X4
	SHUFPS	$0x55, X4, X4      // c1
	MOVAPS	X0, X5
	SHUFPS	$0xAA, X5, X5      // c2
	MOVAPS	X0, X6
	SHUFPS	$0xFF, X6, X6      // c3
	ADDSS	X4, X0             // c0 + c1
	ADDSS	X6, X5             // c2 + c3
	ADDSS	X5, X0             // chunk sum s

tail:
	CMPQ	R11, R9
	JGE	tailDone
	MOVBLSX	(DI)(R11*1), AX
	CVTSL2SS	AX, X4
	MULSS	(SI)(R11*4), X4
	ADDSS	X4, X0
	INCQ	R11
	JMP	tail

tailDone:
	MOVSS	(DX), X4           // total += scale * s
	MULSS	X0, X4
	ADDSS	X4, X7
	ADDQ	$4, DX
	LEAQ	(SI)(R9*4), SI
	ADDQ	R9, DI
	SUBQ	R9, CX
	JMP	chunkLoop

done:
	MOVSS	X7, ret+40(FP)
	RET
