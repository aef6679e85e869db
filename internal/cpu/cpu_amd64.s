//go:build amd64

#include "textflag.h"

// func cpuid1() (ecx, xcr0 uint32)
TEXT ·cpuid1(SB), NOSPLIT, $0-8
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	MOVL	CX, ecx+0(FP)
	XORL	AX, AX
	BTL	$27, CX            // OSXSAVE
	JCC	done
	XORL	CX, CX
	XGETBV
done:
	MOVL	AX, xcr0+4(FP)
	RET
