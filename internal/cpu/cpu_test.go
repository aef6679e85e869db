package cpu

import "testing"

// TestFeatureImplications: F16C and AVX2 are only reported with AVX (both are
// VEX-encoded and need the OS to save YMM state), and AVX512 only with AVX2.
// Its log line records which tiers the host running the tests has.
func TestFeatureImplications(t *testing.T) {
	if F16C && !AVX {
		t.Error("F16C reported without AVX")
	}
	if AVX2 && !AVX {
		t.Error("AVX2 reported without AVX")
	}
	if AVX512 && !AVX2 {
		t.Error("AVX512 reported without AVX2")
	}
	t.Logf("AVX=%v F16C=%v AVX2=%v AVX512=%v", AVX, F16C, AVX2, AVX512)
}

// TestDecode holds the feature decoding to CPUID's and XCR0's bits on
// synthetic registers: a tier needs every instruction bit it names and the
// OS-saved register state it uses, and each tier needs the one below it.
func TestDecode(t *testing.T) {
	const (
		ecxAVX   = 1 << 28
		ecxF16C  = 1 << 29
		ebxAVX2  = 1 << 5
		ebxF     = 1 << 16
		ebxBW    = 1 << 30
		ebxVL    = 1 << 31
		ymmState = 0x6  // XMM, YMM
		zmmState = 0xe0 // opmask, ZMM_Hi256, Hi16_ZMM
		ecxAll   = ecxAVX | ecxF16C
		ebxAll   = ebxAVX2 | ebxF | ebxBW | ebxVL
		xcr0All  = ymmState | zmmState
	)
	for _, c := range []struct {
		name            string
		ecx, ebx7, xcr0 uint32
		avx, f16c, avx2 bool
		avx512          bool
	}{
		{"everything", ecxAll, ebxAll, xcr0All, true, true, true, true},
		{"nothing", 0, 0, 0, false, false, false, false},
		{"AVX-512 without ZMM state", ecxAll, ebxAll, ymmState, true, true, true, false},
		{"AVX-512 without opmask state", ecxAll, ebxAll, xcr0All &^ 0x20, true, true, true, false},
		{"AVX-512 without ZMM_Hi256 state", ecxAll, ebxAll, xcr0All &^ 0x40, true, true, true, false},
		{"AVX-512 without Hi16_ZMM state", ecxAll, ebxAll, xcr0All &^ 0x80, true, true, true, false},
		{"AVX-512 without F", ecxAll, ebxAll &^ ebxF, xcr0All, true, true, true, false},
		{"AVX-512 without BW", ecxAll, ebxAll &^ ebxBW, xcr0All, true, true, true, false},
		{"AVX-512 without VL", ecxAll, ebxAll &^ ebxVL, xcr0All, true, true, true, false},
		{"AVX-512 without AVX2", ecxAll, ebxAll &^ ebxAVX2, xcr0All, true, true, false, false},
		{"no OS-saved YMM state", ecxAll, ebxAll, zmmState, false, false, false, false},
		{"no OSXSAVE (XCR0 read as 0)", ecxAll, ebxAll, 0, false, false, false, false},
		{"AVX2 bit without AVX", ecxF16C, ebxAll, xcr0All, false, false, false, false},
		{"AVX without F16C", ecxAVX, ebxAVX2, ymmState, true, false, true, false},
	} {
		f := decode(c.ecx, c.ebx7, c.xcr0)
		want := features{avx: c.avx, f16c: c.f16c, avx2: c.avx2, avx512: c.avx512}
		if f != want {
			t.Errorf("%s (ecx %#08x, ebx7 %#08x, xcr0 %#x): got %+v, want %+v", c.name, c.ecx, c.ebx7, c.xcr0, f, want)
		}
	}
}
