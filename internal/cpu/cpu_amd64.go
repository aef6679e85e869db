//go:build amd64

package cpu

// cpuid1 returns CPUID.1:ECX, CPUID.7.0:EBX (0 when leaf 7 does not exist)
// and, when leaf 1 reports OSXSAVE, the low half of XCR0 (0 otherwise: XGETBV
// faults without OSXSAVE).
func cpuid1() (ecx, ebx7, xcr0 uint32)

var feat = decode(cpuid1())

var (
	// AVX reports AVX with YMM state the OS saves across context switches.
	AVX = feat.avx
	// F16C reports the VCVTPS2PH/VCVTPH2PS conversions, which are
	// VEX-encoded and so need AVX as well.
	F16C = feat.f16c
	// AVX2 reports the 256-bit integer instructions, under the same
	// OS-enabled YMM state as AVX.
	AVX2 = feat.avx2
	// AVX512 reports AVX-512 F, BW and VL with the opmask and all 32 ZMM
	// registers saved by the OS, on top of AVX2.
	AVX512 = feat.avx512
)
