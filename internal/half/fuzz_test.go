package half

import (
	"math"
	"testing"
)

// FuzzRoundTrip drives arbitrary float32 bit patterns through the FP16
// conversion and checks the IEEE-754 invariants hold for every input.
func FuzzRoundTrip(f *testing.F) {
	for _, seed := range []uint32{0, 1, 0x3f800000, 0x7f800000, 0xff800000, 0x7fc00000, 0x33800000, 0x477fe000} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		x := math.Float32frombits(bits)
		h := FromFloat32(x)
		back := h.ToFloat32()

		switch {
		case math.IsNaN(float64(x)):
			if !isNaN(h) || !math.IsNaN(float64(back)) {
				t.Fatalf("NaN not preserved: %#08x -> %#04x -> %v", bits, h, back)
			}
		case math.IsInf(float64(x), 0):
			if float64(back) != float64(x) {
				t.Fatalf("Inf not preserved: %v -> %v", x, back)
			}
		case math.Abs(float64(x)) > 65520:
			// Overflow rounds to Inf of the same sign.
			if !h.IsInf() || math.Signbit(float64(back)) != math.Signbit(float64(x)) {
				t.Fatalf("overflow of %v gave %v", x, back)
			}
		default:
			// Finite representable range: |error| ≤ max(half ULP,
			// half smallest subnormal).
			ulp := math.Abs(float64(x)) / 1024
			minStep := 5.960464477539063e-08
			tol := math.Max(ulp/2, minStep/2) * 1.0000001
			if math.Abs(float64(back)-float64(x)) > tol {
				t.Fatalf("round trip of %v gave %v (err %v > tol %v)", x, back, float64(back)-float64(x), tol)
			}
			// Idempotency: converting the result again is exact.
			if FromFloat32(back) != h {
				t.Fatalf("conversion not idempotent at %v", x)
			}
		}
	})
}
