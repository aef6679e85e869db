package half

import (
	"math"
	"testing"
	"testing/quick"

	"zipflm/internal/rng"
)

// isNaN reports whether h is a NaN: all exponent bits set, nonzero fraction.
func isNaN(h Float16) bool {
	return h&f16ExpMask == f16ExpMask && h&f16FracMask != 0
}

func TestKnownValues(t *testing.T) {
	cases := []struct {
		f    float32
		bits Float16
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff},            // max finite
		{6.103515625e-05, 0x0400},  // smallest normal
		{5.960464477539063e-08, 1}, // smallest subnormal
		{math.Float32frombits(0x80000000), 0x8000}, // -0.0 (Go constant -0.0 is +0)
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.bits {
			t.Errorf("FromFloat32(%v) = %#04x, want %#04x", c.f, got, c.bits)
		}
		if back := c.bits.ToFloat32(); back != c.f {
			// -0.0 == 0.0 in Go comparison, so this also accepts signed zero.
			t.Errorf("ToFloat32(%#04x) = %v, want %v", c.bits, back, c.f)
		}
	}
}

func TestOverflowToInf(t *testing.T) {
	if h := FromFloat32(70000); !h.IsInf() {
		t.Errorf("70000 should overflow to +Inf, got %#04x", h)
	}
	if h := FromFloat32(-70000); !h.IsInf() || h&f16SignMask == 0 {
		t.Errorf("-70000 should overflow to -Inf, got %#04x", h)
	}
}

func TestNaN(t *testing.T) {
	h := FromFloat32(float32(math.NaN()))
	if !isNaN(h) {
		t.Fatalf("NaN did not convert to FP16 NaN: %#04x", h)
	}
	if back := h.ToFloat32(); !math.IsNaN(float64(back)) {
		t.Errorf("FP16 NaN round trip lost NaN-ness: %v", back)
	}
}

func TestInfRoundTrip(t *testing.T) {
	pos := FromFloat32(float32(math.Inf(1)))
	if !pos.IsInf() || float64(pos.ToFloat32()) != math.Inf(1) {
		t.Errorf("+Inf round trip failed: %#04x -> %v", pos, pos.ToFloat32())
	}
	neg := FromFloat32(float32(math.Inf(-1)))
	if !neg.IsInf() || float64(neg.ToFloat32()) != math.Inf(-1) {
		t.Errorf("-Inf round trip failed: %#04x -> %v", neg, neg.ToFloat32())
	}
}

func TestUnderflowToZero(t *testing.T) {
	if h := FromFloat32(1e-10); h != 0 {
		t.Errorf("1e-10 should underflow to +0, got %#04x", h)
	}
	if h := FromFloat32(-1e-10); h != 0x8000 {
		t.Errorf("-1e-10 should underflow to -0, got %#04x", h)
	}
}

// TestRoundTripPrecision: every normal-range value must round trip within
// half a ULP, i.e. relative error <= 2^-11.
func TestRoundTripPrecision(t *testing.T) {
	f := func(raw uint32) bool {
		x := math.Float32frombits(raw)
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		ax := math.Abs(float64(x))
		if ax < 6.2e-05 || ax > 65000 {
			return true // outside FP16 normal range
		}
		back := float64(FromFloat32(x).ToFloat32())
		return math.Abs(back-float64(x)) <= ax/2048+1e-30
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestExactRoundTripOfFP16Values: FP32 values that are exactly representable
// in FP16 must survive unchanged (idempotency of the wire format).
func TestExactRoundTripOfFP16Values(t *testing.T) {
	for bits := 0; bits < 1<<16; bits++ {
		h := Float16(bits)
		if isNaN(h) {
			continue
		}
		f := h.ToFloat32()
		if got := FromFloat32(f); got != h {
			t.Fatalf("FP16 %#04x -> %v -> %#04x not idempotent", h, f, got)
		}
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 sits exactly between 1.0 and the next FP16 (1+2^-10):
	// must round to even mantissa, i.e. down to 1.0.
	x := float32(1) + float32(math.Pow(2, -11))
	if got := FromFloat32(x).ToFloat32(); got != 1 {
		t.Errorf("midpoint rounding: got %v, want 1 (round to even)", got)
	}
	// 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9: rounds up to even.
	y := float32(1) + 3*float32(math.Pow(2, -11))
	want := float32(1) + 2*float32(math.Pow(2, -10))
	if got := FromFloat32(y).ToFloat32(); got != want {
		t.Errorf("midpoint rounding up: got %v, want %v", got, want)
	}
}

// TestNewScalerRejectsBadFactors: zero, negative and non-finite factors all
// panic (NaN compares false with everything, so "factor <= 0" let it in).
func TestNewScalerRejectsBadFactors(t *testing.T) {
	for _, f := range []float32{0, -1, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewScaler(%v) did not panic", f)
				}
			}()
			NewScaler(f)
		}()
	}
	if s := NewScaler(math.MaxFloat32); s.Factor != math.MaxFloat32 {
		t.Errorf("NewScaler(MaxFloat32) = %v", s.Factor)
	}
}

// TestScalingRescuesSmallGradients is the heart of §III-C: gradients around
// 1e-7 flush to zero in raw FP16 but survive with a 1024x compression scale.
func TestScalingRescuesSmallGradients(t *testing.T) {
	// Below half the smallest FP16 subnormal (~2.98e-8) raw conversion
	// flushes to zero.
	grad := []float32{2.5e-8, -1.5e-8, 8e-9}

	raw := make([]float32, len(grad))
	copy(raw, grad)
	NewScaler(1).RoundTrip(raw)
	zeros := 0
	for _, v := range raw {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("expected unscaled FP16 to flush tiny gradients to zero")
	}

	// Scaling by 2^16 lifts them into the FP16 normal range.
	scaled := make([]float32, len(grad))
	copy(scaled, grad)
	NewScaler(65536).RoundTrip(scaled)
	for i, v := range scaled {
		if v == 0 {
			t.Errorf("element %d flushed to zero despite scaling", i)
		}
		rel := math.Abs(float64(v-grad[i])) / math.Abs(float64(grad[i]))
		if rel > 1e-3 {
			t.Errorf("element %d: relative error %v too large", i, rel)
		}
	}
}

// TestRoundTripSaturates: values that overflow after scaling clip to the max
// finite FP16 instead of becoming Inf.
func TestRoundTripSaturates(t *testing.T) {
	x := []float32{1e6, -1e6}
	NewScaler(1).RoundTrip(x)
	if x[0] != MaxFinite || x[1] != -MaxFinite {
		t.Errorf("saturation: got %v, want ±%v", x, float32(MaxFinite))
	}
}

// TestScaledRoundTripProperty: for values in the safe range, scaling by a
// power of two must not change the round-trip result materially.
func TestScaledRoundTripProperty(t *testing.T) {
	r := rng.New(7)
	s := NewScaler(512)
	for i := 0; i < 2000; i++ {
		x := float32(r.NormFloat64())
		buf := []float32{x}
		s.RoundTrip(buf)
		if math.Abs(float64(buf[0]-x)) > math.Abs(float64(x))/1024+1e-9 {
			t.Fatalf("scaled round trip of %v gave %v", x, buf[0])
		}
	}
}

func TestBytes(t *testing.T) {
	if Bytes(10) != 20 {
		t.Errorf("Bytes(10) = %d, want 20", Bytes(10))
	}
}

func BenchmarkFromFloat32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = FromFloat32(3.14159)
	}
}

// BenchmarkRoundTrip times the wire simulation on a 64 Ki-element tensor, on
// the F16C kernel (where the host has it) and on the portable loop.
func BenchmarkRoundTrip(b *testing.B) {
	x := make([]float32, 1<<16)
	r := rng.New(3)
	for i := range x {
		x[i] = float32(r.NormFloat64()) * 0.01
	}
	s := NewScaler(256)
	for _, asm := range []bool{true, false} {
		name := "go"
		if asm {
			name = "asm"
		}
		b.Run(name, func(b *testing.B) {
			withF16C(asm, func() {
				b.SetBytes(int64(4 * len(x)))
				for i := 0; i < b.N; i++ {
					s.RoundTrip(x)
				}
			})
		})
	}
}
