package cpu

import "testing"

// TestFeatureImplications: F16C and AVX2 are only reported with AVX (both are
// VEX-encoded and need the OS to save YMM state).
func TestFeatureImplications(t *testing.T) {
	if F16C && !AVX {
		t.Error("F16C reported without AVX")
	}
	if AVX2 && !AVX {
		t.Error("AVX2 reported without AVX")
	}
	t.Logf("AVX=%v F16C=%v AVX2=%v", AVX, F16C, AVX2)
}
