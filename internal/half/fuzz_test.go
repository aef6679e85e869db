package half

import (
	"math"
	"testing"
)

// FuzzRoundTrip drives arbitrary float32 bit patterns through the FP16
// conversion and checks the IEEE-754 invariants hold for every input, then
// through the fused receive path: adding the pattern's wire crossing to a
// running value with AddRoundTrip — nine lanes, so the F16C kernel and the
// portable tail both run — is RoundTrip followed by an add that keeps a NaN
// already in the running value.
func FuzzRoundTrip(f *testing.F) {
	for _, seed := range []uint32{0, 1, 0x3f800000, 0x7f800000, 0xff800000, 0x7fc00000, 0x33800000, 0x477fe000} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		x := math.Float32frombits(bits)
		for _, factor := range []float32{1, 512} {
			s := NewScaler(factor)
			dst := []float32{0, 1, -1, x, -x, 65504, float32(math.Inf(-1)), math.Float32frombits(^bits), math.Float32frombits(bits>>1 | 0x7f800001)}
			src := make([]float32, len(dst))
			for i := range src {
				src[i] = x
			}
			start := append([]float32(nil), dst...)
			want := append([]float32(nil), dst...)
			crossed := []float32{x}
			s.RoundTrip(crossed)
			for i, d := range want {
				if d != d {
					want[i] = math.Float32frombits(math.Float32bits(d) | 1<<22)
				} else {
					want[i] = d + crossed[0]
				}
			}
			s.AddRoundTrip(dst, src)
			for i := range want {
				if math.Float32bits(dst[i]) != math.Float32bits(want[i]) || math.Float32bits(src[i]) != bits {
					t.Fatalf("F=%v lane %d: %#08x added to %#08x gave %#08x (src now %#08x), want %#08x",
						factor, i, bits, math.Float32bits(start[i]), math.Float32bits(dst[i]), math.Float32bits(src[i]), math.Float32bits(want[i]))
				}
			}
		}

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
