package cpu

import "testing"

// TestFeatureImplications: F16C is only reported with AVX, and every amd64
// CPU the OS lets reach AVX has SSE4.1.
func TestFeatureImplications(t *testing.T) {
	if F16C && !AVX {
		t.Error("F16C reported without AVX")
	}
	if AVX && !SSE41 {
		t.Error("AVX reported without SSE4.1")
	}
	t.Logf("SSE41=%v AVX=%v F16C=%v", SSE41, AVX, F16C)
}
