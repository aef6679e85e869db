package half

import (
	"fmt"
	"math"
	"testing"

	"zipflm/internal/rng"
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

// checkRoundTrip sends x through Scaler.RoundTrip (the F16C kernel plus the
// portable tail) and through roundTripGo alone, and compares every bit: NaN
// is canonicalised on both paths, so unlike the FP32 kernels no NaN needs
// excusing. The kernel's copy has a sentinel on each side in the same
// allocation, off elements in, so a store outside the slice is seen.
func checkRoundTrip(t *testing.T, ctx string, s *Scaler, x []float32, off int) {
	t.Helper()
	buf := make([]float32, off+1+len(x)+1)
	got := buf[off+1 : off+1+len(x)]
	buf[off], buf[len(buf)-1] = f16Sentinel, f16Sentinel
	copy(got, x)
	want := append([]float32(nil), x...)

	s.RoundTrip(got)
	roundTripGo(want, s.Factor, 1/s.Factor)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s F=%v: element %d, input %v (%#08x): asm %v (%#08x) != go %v (%#08x)", ctx, s.Factor, i,
				x[i], math.Float32bits(x[i]), got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
	if buf[off] != f16Sentinel || buf[len(buf)-1] != f16Sentinel {
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
