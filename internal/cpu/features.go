package cpu

// features is what the probe reports.
type features struct{ avx, f16c, avx2, avx512 bool }

// decode reads the features from the three registers the probe returns:
// CPUID.1:ECX, CPUID.7.0:EBX and the low half of XCR0. It is a pure
// function, so it is tested on synthetic registers on any host. A vector
// extension counts only when the OS also saves the register state it uses
// across context switches (XCR0), and each wider tier is reported only on
// top of the narrower ones.
func decode(ecx, ebx7, xcr0 uint32) features {
	var f features
	// AVX: CPUID.1:ECX bit 28, with XMM and YMM state saved (XCR0 bits 1, 2).
	f.avx = ecx&(1<<28) != 0 && xcr0&0x6 == 0x6
	// F16C: CPUID.1:ECX bit 29; VEX-encoded, so AVX as well.
	f.f16c = f.avx && ecx&(1<<29) != 0
	// AVX2: CPUID.7.0:EBX bit 5, under the same YMM state as AVX.
	f.avx2 = f.avx && ebx7&(1<<5) != 0
	// AVX512: F, BW and VL (CPUID.7.0:EBX bits 16, 30, 31), with opmask,
	// ZMM_Hi256 and Hi16_ZMM state saved (XCR0 bits 5, 6, 7).
	const fbwvl = 1<<16 | 1<<30 | 1<<31
	f.avx512 = f.avx2 && ebx7&fbwvl == fbwvl && xcr0&0xe0 == 0xe0
	return f
}
