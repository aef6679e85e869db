//go:build amd64

package cpu

// cpuid1 returns CPUID.1:ECX and, when that reports OSXSAVE, the low half of
// XCR0 (0 otherwise: XGETBV faults without OSXSAVE).
func cpuid1() (ecx, xcr0 uint32)

var featECX, featXCR0 = cpuid1()

var (
	// SSE41 reports SSE4.1 (CPUID.1:ECX bit 19).
	SSE41 = featECX&(1<<19) != 0
	// AVX reports AVX with YMM state the OS saves across context switches
	// (CPUID.1:ECX bit 28, XCR0 bits 1 and 2).
	AVX = featECX&(1<<28) != 0 && featXCR0&6 == 6
	// F16C reports the VCVTPS2PH/VCVTPH2PS conversions (CPUID.1:ECX bit 29),
	// which are VEX-encoded and so need AVX as well.
	F16C = AVX && featECX&(1<<29) != 0
)
