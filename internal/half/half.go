// Package half implements IEEE-754 binary16 ("FP16") conversion, plus the
// compression-scaling scheme of §III-C of the paper: before down-casting a
// gradient tensor for the wire, multiply by a scale factor F so small
// magnitudes do not flush to zero in the narrower exponent range; divide by
// F after up-casting on the receiving end.
//
// FromFloat32 and ToFloat32 are the definition, in portable integer code:
// round-to-nearest-even, gradual underflow to subnormals, overflow to ±Inf,
// every NaN to the quiet NaN 0x7e00 carrying the input's sign (0x7fc00000
// plus sign coming back). The two bulk paths are built on them:
// Scaler.RoundTrip crosses the wire in place (what a sender does to the
// buffer it ships), and Scaler.AddRoundTrip is the same crossing fused with
// the receiver's accumulation, dst += roundtrip(src) in one pass with src
// left alone. Each has an F16C twin (VCVTPS2PH/VCVTPH2PS, eight elements at
// a time) chosen from CPUID and bit-identical to its portable loop on every
// input (TestRoundTripAsmMatchesGo, TestAddRoundTripAsmMatchesGo). All
// saturate: a scaled value past the FP16
// range, ±Inf included, crosses the wire as ±65504, so the clamp comes
// before the conversion; and all canonicalise NaN as above, which the
// hardware conversion alone would not (it keeps the top payload bits).
package half

import "math"

// Float16 is an IEEE-754 binary16 value stored in its 16-bit wire format:
// 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
type Float16 uint16

// Bit-layout constants for binary16 and binary32.
const (
	f16SignMask  = 0x8000
	f16ExpMask   = 0x7c00
	f16FracMask  = 0x03ff
	f16ExpBias   = 15
	f16Infinity  = Float16(0x7c00)
	f16NaN       = Float16(0x7e00)
	f16MaxFinite = 65504.0
)

// FromFloat32 converts a float32 to binary16 with round-to-nearest-even.
// Values above the FP16 finite range become ±Inf (matching IEEE and GPU
// behaviour); NaN maps to a quiet NaN.
func FromFloat32(f float32) Float16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & f16SignMask
	exp := int32(bits>>23) & 0xff
	frac := bits & 0x7fffff

	switch {
	case exp == 0xff: // Inf or NaN
		if frac != 0 {
			return Float16(sign) | f16NaN
		}
		return Float16(sign) | f16Infinity
	case exp == 0 && frac == 0: // signed zero
		return Float16(sign)
	}

	// Unbiased exponent.
	e := exp - 127
	switch {
	case e > 15:
		// Overflow: round to infinity.
		return Float16(sign) | f16Infinity
	case e >= -14:
		// Normal range. 23-bit fraction -> 10-bit with RNE.
		out := uint32(e+f16ExpBias)<<10 | frac>>13
		// Round: inspect the 13 discarded bits.
		rem := frac & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && out&1 == 1) {
			out++ // may carry into exponent; that is correct RNE behaviour
		}
		return Float16(sign | uint16(out))
	case e >= -25:
		// Subnormal range: shift in the implicit leading 1, then round.
		frac |= 0x800000
		shift := uint32(-e - 14 + 13) // total right shift to 10-bit subnormal
		out := frac >> shift
		rem := frac & ((1 << shift) - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && out&1 == 1) {
			out++
		}
		return Float16(sign | uint16(out))
	default:
		// Underflow to signed zero.
		return Float16(sign)
	}
}

// ToFloat32 converts a binary16 back to float32 exactly (every FP16 value is
// representable in FP32).
func (h Float16) ToFloat32() float32 {
	sign := uint32(h&f16SignMask) << 16
	exp := uint32(h&f16ExpMask) >> 10
	frac := uint32(h & f16FracMask)

	switch {
	case exp == 0x1f: // Inf / NaN
		if frac != 0 {
			return math.Float32frombits(sign | 0x7f800000 | frac<<13 | 1<<22)
		}
		return math.Float32frombits(sign | 0x7f800000)
	case exp == 0:
		if frac == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal: normalize.
		e := int32(-14)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= f16FracMask
		return math.Float32frombits(sign | uint32(e+127)<<23 | frac<<13)
	default:
		return math.Float32frombits(sign | (exp-f16ExpBias+127)<<23 | frac<<13)
	}
}

// IsInf reports whether h is ±Inf.
func (h Float16) IsInf() bool {
	return h&f16ExpMask == f16ExpMask && h&f16FracMask == 0
}

// Scaler implements compression-scaling (§III-C): multiply by F before the
// down-cast, divide by F after the up-cast. F is typically a power of two
// (256, 512, 1024) so scaling is exact in binary floating point.
type Scaler struct {
	// Factor is the compression-scaling factor F.
	Factor float32
}

// NewScaler returns a Scaler with the given factor. Factor 1 disables
// scaling. Panics unless the factor is positive and finite (NaN fails every
// comparison, so the test is written as the accepted range).
func NewScaler(factor float32) *Scaler {
	if !(factor > 0 && factor <= math.MaxFloat32) {
		panic("half: scale factor must be positive and finite")
	}
	return &Scaler{Factor: factor}
}

// RoundTrip applies compress-then-decompress in place, simulating what a
// tensor looks like after one trip over an FP16 wire. Overflow saturates to
// the FP16 finite max rather than propagating Inf, mirroring the clipping
// production loss-scaling stacks apply.
func (s *Scaler) RoundTrip(x []float32) {
	inv := 1 / s.Factor
	if n := len(x) &^ 7; useF16C && n > 0 {
		roundTripF16C(&x[0], n, s.Factor, inv)
		x = x[n:]
	}
	roundTripGo(x, s.Factor, inv)
}

// crossed is what f looks like after one trip over the wire: the definition
// both F16C kernels are held to.
func crossed(f, factor, inv float32) float32 {
	h := FromFloat32(f * factor)
	if h.IsInf() {
		h = MaxFiniteWithSign(h)
	}
	return h.ToFloat32() * inv
}

// roundTripGo is the portable RoundTrip kernel; it also finishes the last
// len(x)%8 elements after the F16C one.
func roundTripGo(x []float32, factor, inv float32) {
	for i, f := range x {
		x[i] = crossed(f, factor, inv)
	}
}

// AddRoundTrip adds to dst what RoundTrip would make of src and leaves src
// alone: collective.Wire's receive side, how the receiver of a ring hop
// consumes an FP16 chunk in one pass. Panics unless the lengths match.
func (s *Scaler) AddRoundTrip(dst, src []float32) {
	if len(dst) != len(src) {
		panic("half: AddRoundTrip length mismatch")
	}
	inv := 1 / s.Factor
	if n := len(src) &^ 7; useF16C && n > 0 {
		addRoundTripF16C(&dst[0], &src[0], n, s.Factor, inv)
		dst, src = dst[n:], src[n:]
	}
	addRoundTripGo(dst, src, s.Factor, inv)
}

// addRoundTripGo is the portable AddRoundTrip kernel and the F16C one's
// tail: dst[i] + crossed(src[i]), the running value first. Order shows only
// when both are NaN — VADDPS keeps its first source's, quieted, so a NaN
// already in dst stays; a plain += would leave the choice to the compiler.
func addRoundTripGo(dst, src []float32, factor, inv float32) {
	for i, f := range src {
		if d := dst[i]; d != d {
			dst[i] = math.Float32frombits(math.Float32bits(d) | 1<<22)
		} else {
			dst[i] = d + crossed(f, factor, inv)
		}
	}
}

// MaxFiniteWithSign returns the largest finite FP16 magnitude carrying h's
// sign — the saturation value RoundTrip (and any other wire encoder)
// substitutes for overflow instead of propagating Inf.
func MaxFiniteWithSign(h Float16) Float16 {
	if h&f16SignMask != 0 {
		return Float16(f16SignMask | 0x7bff) // -max finite
	}
	return Float16(0x7bff) // +max finite
}

// WireBytes reports the wire size of n elements under this scaler — the
// collective.Wire accounting hook (FP16 occupies 2 bytes per element and
// carries no side data; the scale factor is configuration, not payload).
func (s *Scaler) WireBytes(n int) int { return Bytes(n) }

// MaxFinite is the largest finite FP16 magnitude.
const MaxFinite = f16MaxFinite

// Bytes reports the wire size of n FP16 elements.
func Bytes(n int) int { return 2 * n }
