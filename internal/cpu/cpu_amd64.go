//go:build amd64

package cpu

// cpuid1 returns CPUID.1:ECX, CPUID.7.0:EBX (0 when leaf 7 does not exist)
// and, when leaf 1 reports OSXSAVE, the low half of XCR0 (0 otherwise: XGETBV
// faults without OSXSAVE).
func cpuid1() (ecx, ebx7, xcr0 uint32)

var featECX, featEBX7, featXCR0 = cpuid1()

var (
	// AVX reports AVX with YMM state the OS saves across context switches
	// (CPUID.1:ECX bit 28, XCR0 bits 1 and 2).
	AVX = featECX&(1<<28) != 0 && featXCR0&6 == 6
	// F16C reports the VCVTPS2PH/VCVTPH2PS conversions (CPUID.1:ECX bit 29),
	// which are VEX-encoded and so need AVX as well.
	F16C = AVX && featECX&(1<<29) != 0
	// AVX2 reports the 256-bit integer instructions (CPUID.7.0:EBX bit 5),
	// under the same OS-enabled YMM state as AVX.
	AVX2 = AVX && featEBX7&(1<<5) != 0
)
