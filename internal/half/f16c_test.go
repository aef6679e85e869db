package half

import (
	"fmt"
	"math"
	"testing"

	"zipflm/internal/rng"
	"zipflm/internal/tensor"
)

// withF16C runs fn with the assembly gate forced off (on=false) or left as
// CPUID set it (on=true; a host without F16C stays portable).
func withF16C(on bool, fn func()) {
	old := useF16C
	useF16C = on && old
	defer func() { useF16C = old }()
	fn()
}

const f16Sentinel = -12345.5

// guarded returns a copy of x with a sentinel on each side in the same
// allocation, off elements in, and a check that neither was overwritten.
func guarded(x []float32, off int) (copyOf []float32, intact func() bool) {
	buf := make([]float32, off+1+len(x)+1)
	buf[off], buf[len(buf)-1] = f16Sentinel, f16Sentinel
	copyOf = buf[off+1 : off+1+len(x)]
	copy(copyOf, x)
	return copyOf, func() bool { return buf[off] == f16Sentinel && buf[len(buf)-1] == f16Sentinel }
}

// checkRoundTrip sends x through Scaler.RoundTrip (the F16C kernel plus the
// portable tail) and through roundTripGo alone, and compares every bit: NaN
// is canonicalised on both paths, so unlike the FP32 kernels no NaN needs
// excusing. The kernel's copy is guarded, so a store outside the slice is
// seen.
func checkRoundTrip(t *testing.T, ctx string, s *Scaler, x []float32, off int) {
	t.Helper()
	got, intact := guarded(x, off)
	want := append([]float32(nil), x...)

	s.RoundTrip(got)
	roundTripGo(want, s.Factor, 1/s.Factor)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s F=%v: element %d, input %v (%#08x): asm %v (%#08x) != go %v (%#08x)", ctx, s.Factor, i,
				x[i], math.Float32bits(x[i]), got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
	if !intact() {
		t.Fatalf("%s F=%v: kernel stored outside its slice", ctx, s.Factor)
	}
}

// halfMagnitude is the value of the non-negative half with bits k, with
// 0x7c00 read as 2^16: the number the largest finite half's upper rounding
// midpoint (65520) is halfway to.
func halfMagnitude(k int) float64 {
	if k == 0x7c00 {
		return 65536
	}
	return float64(Float16(k).ToFloat32())
}

// roundingCorpus returns, for every finite half of both signs, the float32
// values that decide its rounding: the half itself, one float32 ulp either
// side, and the exact midpoints to the next half below and above (ties, which
// go to the even neighbour) with one ulp either side of those. Midpoints of
// adjacent halves need at most 12 significant bits, so they are exact in
// float32; the last one is 65520, where overflow starts.
func roundingCorpus() []float32 {
	var xs []float32
	around := func(v float32) {
		xs = append(xs, v, math.Nextafter32(v, float32(math.Inf(1))), math.Nextafter32(v, float32(math.Inf(-1))))
	}
	for k := 0; k <= 0x7bff; k++ {
		v := halfMagnitude(k)
		for _, sign := range []float64{1, -1} {
			around(float32(sign * v))
			around(float32(sign * (v + halfMagnitude(k+1)) / 2))
			if k > 0 {
				around(float32(sign * (v + halfMagnitude(k-1)) / 2))
			}
		}
	}
	return xs
}

// edgeCorpus is everything that is not ordinary rounding: the overflow edge,
// float32 overflow of x·F itself, float32 subnormals, signed zeros, and NaNs
// of both signs with quiet, signalling, minimal and full payloads.
func edgeCorpus(r *rng.RNG) []float32 {
	var xs []float32
	for _, v := range []float32{
		65504, math.Nextafter32(65520, 0), 65520, math.Nextafter32(65520, 1e9), 65536, 1e6,
		math.MaxFloat32, float32(math.Inf(1)), 0,
	} {
		xs = append(xs, v, -v)
	}
	bits := []uint32{
		0x00000001, 0x00400000, 0x007fffff, 0x00800000, // subnormals, smallest normal
		0x7f800001, 0x7fa00000, 0x7fbfffff, 0x7fc00000, 0x7fc00001, 0x7fe00000, 0x7fffffff, // NaNs
		0x7f802000, 0x7f801fff, // NaNs whose payload sits at and just under the bits a half keeps
	}
	for i := 0; i < 64; i++ {
		bits = append(bits, uint32(r.Uint64())&0x007fffff)            // random subnormal
		bits = append(bits, 0x7f800000|uint32(r.Uint64())&0x007fffff) // random NaN (or Inf)
	}
	for _, b := range bits {
		xs = append(xs, math.Float32frombits(b), math.Float32frombits(b|0x80000000))
	}
	return xs
}

// TestRoundTripAsmMatchesGo holds the F16C kernel to the portable definition
// bit for bit. Every other suite that crosses the FP16 wire runs the same
// kernel on both sides, so this is the one that would see a wrong rounding
// mode, a missing saturate or a leaked NaN payload (each was tried: imm8 = 3,
// the VMINPS/VMAXPS pair removed, and the final blend removed all fail here).
// Skipped where the asm does not run.
func TestRoundTripAsmMatchesGo(t *testing.T) {
	if !useF16C {
		t.Skip("no F16C kernel on this build or host")
	}
	r := rng.New(29)

	// Every half decoded (NaN payloads and infinities included), the
	// rounding deciders of every finite half, and the edges — as the scaled
	// value itself and, divided by F (exact: F is a power of two and nothing
	// here is small enough to underflow), as the value that scales to it.
	var corpus []float32
	for k := 0; k < 1<<16; k++ {
		corpus = append(corpus, Float16(k).ToFloat32())
	}
	corpus = append(corpus, roundingCorpus()...)
	corpus = append(corpus, edgeCorpus(r)...)
	random := make([]float32, 1<<22)
	for i := range random {
		random[i] = math.Float32frombits(uint32(r.Uint64()))
	}

	for _, f := range []float32{1, 256, 512, 1024} {
		s := NewScaler(f)
		checkRoundTrip(t, "corpus", s, corpus, 0)
		pre := make([]float32, len(corpus))
		for i, y := range corpus {
			pre[i] = y / f
		}
		checkRoundTrip(t, "corpus/F", s, pre, 0)
		checkRoundTrip(t, "random bits", s, random, 0)

		// Lengths around the 8-wide block at offsets that break its
		// alignment: the kernel/tail split and the stores' bounds.
		for n := 0; n <= 70; n++ {
			for _, off := range []int{0, 1, 3} {
				at := r.Intn(len(corpus) - n)
				checkRoundTrip(t, fmt.Sprintf("n=%d off=%d", n, off), s, corpus[at:at+n], off)
			}
		}
	}
}

// TestRoundTripZeroAlloc: the wire simulation runs on every ring hop and must
// not allocate on either path.
func TestRoundTripZeroAlloc(t *testing.T) {
	x := make([]float32, 1000)
	s := NewScaler(256)
	for _, asm := range []bool{true, false} {
		withF16C(asm, func() {
			if n := testing.AllocsPerRun(50, func() { s.RoundTrip(x) }); n != 0 {
				t.Errorf("asm=%v: RoundTrip allocates %v times per call", asm, n)
			}
		})
	}
}

// checkAddRoundTrip holds Scaler.AddRoundTrip (the F16C kernel plus the
// portable tail) to addRoundTripGo alone, and both to the two passes they
// fuse — roundTripGo on a copy of src, then tensor.AddInPlace — bit for bit,
// NaNs included; src must come back untouched and nothing outside dst
// written. The one excuse is the two-pass leg where dst and the rounded src
// are both NaN: AddInPlace's portable loop leaves the surviving payload to
// the compiler (its AVX kernel keeps dst's, like both twins here).
func checkAddRoundTrip(t *testing.T, ctx string, s *Scaler, dst, src []float32, off int) {
	t.Helper()
	inv := 1 / s.Factor
	got, dstIntact := guarded(dst, off)
	in, srcIntact := guarded(src, off)
	want := append([]float32(nil), dst...)
	twoPass := append([]float32(nil), dst...)
	rounded := append([]float32(nil), src...)

	s.AddRoundTrip(got, in)
	addRoundTripGo(want, src, s.Factor, inv)
	roundTripGo(rounded, s.Factor, inv)
	tensor.AddInPlace(twoPass, rounded)
	for i := range want {
		at := func() string {
			return fmt.Sprintf("%s F=%v: element %d of %d, dst %v (%#08x) src %v (%#08x)", ctx, s.Factor, i, len(want),
				dst[i], math.Float32bits(dst[i]), src[i], math.Float32bits(src[i]))
		}
		if math.Float32bits(in[i]) != math.Float32bits(src[i]) {
			t.Fatalf("%s: src rewritten to %v (%#08x)", at(), in[i], math.Float32bits(in[i]))
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: asm %v (%#08x) != go %v (%#08x)", at(), got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
		bothNaN := dst[i] != dst[i] && rounded[i] != rounded[i] && twoPass[i] != twoPass[i]
		if math.Float32bits(want[i]) != math.Float32bits(twoPass[i]) && !bothNaN {
			t.Fatalf("%s: fused %v (%#08x) != RoundTrip then AddInPlace %v (%#08x)", at(), want[i], math.Float32bits(want[i]), twoPass[i], math.Float32bits(twoPass[i]))
		}
	}
	if !dstIntact() || !srcIntact() {
		t.Fatalf("%s F=%v: kernel stored outside dst", ctx, s.Factor)
	}
}

// addPairs is what decides an add after a wire crossing, as (dst, src)
// pairs for factor f: NaNs of both signs and several payloads in either
// operand and in both, infinities against each other and against the
// saturated value, the four signed-zero sums, FP16 subnormals and the edge
// below which a scaled value rounds to zero, and the values around 65504/f
// where saturation starts.
func addPairs(f float32) [][2]float32 {
	bits := math.Float32frombits
	inf := float32(math.Inf(1))
	negZero := bits(0x80000000)
	nans := []float32{bits(0x7fc00000), bits(0xffc00000), bits(0x7f800001), bits(0xffa00000), bits(0x7fc12345), bits(0xffffffff)}
	var ps [][2]float32
	for _, a := range nans {
		ps = append(ps, [2]float32{a, 1.5}, [2]float32{1.5, a}, [2]float32{a, inf}, [2]float32{-inf, a})
		for _, b := range nans {
			ps = append(ps, [2]float32{a, b})
		}
	}
	for _, d := range []float32{inf, -inf, 0, negZero, 1, -65504 / f} {
		for _, v := range []float32{inf, -inf, 0, negZero} {
			ps = append(ps, [2]float32{d, v})
		}
	}
	edges := []float32{
		65504 / f, math.Nextafter32(65504/f, 0), math.Nextafter32(65504/f, inf), // the largest half
		math.Nextafter32(65520/f, 0), 65520 / f, 65536 / f, math.MaxFloat32, // where rounding to it ends
		0x1p-14 / f, math.Nextafter32(0x1p-14/f, 0), 0x3p-24 / f, 0x1p-24 / f, // smallest normal, subnormals
		math.Nextafter32(0x1p-25/f, 1), 0x1p-25 / f, math.Nextafter32(0x1p-25/f, 0), // the underflow tie and its sides
		bits(1), bits(0x007fffff), // float32 subnormals
	}
	for _, v := range edges {
		for _, d := range []float32{0, negZero, 1, -v, bits(1)} {
			ps = append(ps, [2]float32{d, v}, [2]float32{-d, -v})
		}
	}
	return ps
}

// TestAddRoundTripAsmMatchesGo is TestRoundTripAsmMatchesGo for the fused
// receive kernel: asm ≡ Go ≡ the two passes, on the whole rounding corpus
// against random running values, and with every addPairs case at every
// position of every length 0…70 (kernel body, tail and the split between
// them). Each twin was broken on purpose to see this fail: the
// VMINPS/VMAXPS pair dropped from the .s, VADDPS's sources swapped (only a
// NaN in both operands shows it), and 1/F applied before the conversion in
// either twin. On a host without F16C it still holds the portable loop to
// the two passes.
func TestAddRoundTripAsmMatchesGo(t *testing.T) {
	r := rng.New(31)
	var corpus []float32
	for k := 0; k < 1<<16; k++ {
		corpus = append(corpus, Float16(k).ToFloat32())
	}
	corpus = append(corpus, roundingCorpus()...)
	corpus = append(corpus, edgeCorpus(r)...)
	running := make([]float32, len(corpus))
	for i := range running {
		running[i] = float32(r.Float64()*8 - 4)
	}
	randomSrc := make([]float32, 1<<20)
	randomDst := make([]float32, len(randomSrc))
	for i := range randomSrc {
		randomSrc[i] = math.Float32frombits(uint32(r.Uint64()))
		randomDst[i] = math.Float32frombits(uint32(r.Uint64()))
	}

	for _, f := range []float32{1, 256, 1024} {
		s := NewScaler(f)
		checkAddRoundTrip(t, "corpus", s, running, corpus, 0)
		pre := make([]float32, len(corpus))
		for i, y := range corpus {
			pre[i] = y / f
		}
		checkAddRoundTrip(t, "corpus/F", s, running, pre, 0)
		checkAddRoundTrip(t, "random bits", s, randomDst, randomSrc, 0)

		pairs := addPairs(f)
		dst, src := make([]float32, 70), make([]float32, 70)
		for shift := range pairs {
			for i := range dst {
				p := pairs[(i+shift)%len(pairs)]
				dst[i], src[i] = p[0], p[1]
			}
			for n := 0; n <= 70; n++ {
				checkAddRoundTrip(t, fmt.Sprintf("pairs shift=%d", shift), s, dst[:n], src[:n], shift%4)
			}
		}
	}
}

// TestAddRoundTripZeroAlloc: the fused kernel runs on every scatter-reduce
// hop and must not allocate on either path.
func TestAddRoundTripZeroAlloc(t *testing.T) {
	dst, src := make([]float32, 1000), make([]float32, 1000)
	s := NewScaler(256)
	for _, asm := range []bool{true, false} {
		withF16C(asm, func() {
			if n := testing.AllocsPerRun(50, func() { s.AddRoundTrip(dst, src) }); n != 0 {
				t.Errorf("asm=%v: AddRoundTrip allocates %v times per call", asm, n)
			}
		})
	}
}
