//go:build amd64

#include "textflag.h"

// func cpuid1() (ecx, ebx7, xcr0 uint32)
TEXT ·cpuid1(SB), NOSPLIT, $0-12
	XORL	AX, AX
	CPUID
	MOVL	AX, R8             // highest basic leaf
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	MOVL	CX, ecx+0(FP)
	MOVL	CX, R9
	XORL	BX, BX
	CMPL	R8, $7
	JLT	noLeaf7
	MOVL	$7, AX
	XORL	CX, CX
	CPUID
noLeaf7:
	MOVL	BX, ebx7+4(FP)
	XORL	AX, AX
	BTL	$27, R9            // OSXSAVE
	JCC	done
	XORL	CX, CX
	XGETBV
done:
	MOVL	AX, xcr0+8(FP)
	RET
