package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"zipflm/internal/cpu"
	"zipflm/internal/rng"
)

// fp32Tier is one instruction tier of the FP32 kernels: the Go loops that
// define them, the AVX assembly, or the AVX assembly with axpyRun and the
// Dot family in ZMM registers.
type fp32Tier int

const (
	tierGo fp32Tier = iota
	tierAVX
	tierZMM
)

var fp32Tiers = []fp32Tier{tierZMM, tierAVX, tierGo}

func (tier fp32Tier) String() string { return [...]string{"go", "avx", "zmm"}[tier] }

// available reports whether this build and host run the tier's kernels.
func (tier fp32Tier) available() bool {
	return tier == tierGo || tier == tierAVX && cpu.AVX || tier == tierZMM && cpu.AVX512
}

// set switches the FP32 kernels to the tier, never above what CPUID allows;
// the caller restores the gates (with and forFP32Twins do).
func (tier fp32Tier) set() {
	useFP32Asm = tier >= tierAVX && cpu.AVX
	useFP32AVX512 = tier >= tierZMM && cpu.AVX512
}

// with runs fn with the FP32 kernels at the tier, then restores the gates.
func (tier fp32Tier) with(fn func()) {
	defer restoreFP32Gates()()
	tier.set()
	fn()
}

// restoreFP32Gates returns a function that puts the gates back as they are
// now.
func restoreFP32Gates() func() {
	asm, avx512 := useFP32Asm, useFP32AVX512
	return func() { useFP32Asm, useFP32AVX512 = asm, avx512 }
}

// kernelTier is one instruction tier of a kernel family (fp32Tier, q8Tier);
// its zero value is the family's Go definition.
type kernelTier interface {
	comparable
	fmt.Stringer
	available() bool
	set()
}

// twin is a pair of tiers a twin test holds to each other.
type twin[T kernelTier] struct{ got, want T }

func (tw twin[T]) String() string { return tw.got.String() + "-vs-" + tw.want.String() }

// same is the equality the pair is held to: sameFloat against the Go loops,
// whose NaN payloads are the compiler's choice, and every bit, NaN payloads
// included, between two assembly tiers, which both fix their operand order.
func (tw twin[T]) same(x, y float32) bool {
	var goTier T
	if tw.want == goTier {
		return sameFloat(x, y)
	}
	return math.Float32bits(x) == math.Float32bits(y)
}

func (tw twin[T]) sameFloats(t *testing.T, ctx string, got, want []float32) {
	t.Helper()
	sameFloatsBy(t, ctx, got, want, tw.same)
}

// forTwins runs fn as one subtest per twin, putting the gates back with
// restore after each. A twin whose tier this build or host lacks is skipped
// with the reason logged.
func forTwins[T kernelTier](t *testing.T, twins []twin[T], restore func() func(), fn func(t *testing.T, tw twin[T])) {
	for _, tw := range twins {
		t.Run(tw.String(), func(t *testing.T) {
			if !tw.got.available() {
				t.Skipf("the %s tier does not run on this build or host", tw.got)
			}
			defer restore()()
			fn(t, tw)
		})
	}
}

type fp32Twin = twin[fp32Tier]

// fp32Twins: each assembly tier against the Go definition, and the ZMM tier
// against the AVX one.
var fp32Twins = []fp32Twin{{tierZMM, tierGo}, {tierAVX, tierGo}, {tierZMM, tierAVX}}

func forFP32Twins(t *testing.T, fn func(t *testing.T, tw fp32Twin)) {
	forTwins(t, fp32Twins, restoreFP32Gates, fn)
}

// sameFloat is bit equality, except that any NaN equals any NaN: when both
// operands of an add or multiply are NaN, x86 returns the first operand's
// payload, and which operand comes first in the portable kernels is the Go
// compiler's choice, not part of any contract here.
func sameFloat(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

func sameFloats(t *testing.T, ctx string, got, want []float32) {
	t.Helper()
	sameFloatsBy(t, ctx, got, want, sameFloat)
}

func sameFloatsBy(t *testing.T, ctx string, got, want []float32, same func(x, y float32) bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if !same(got[i], want[i]) {
			t.Fatalf("%s: element %d: %v (%#08x) != %v (%#08x)", ctx, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// fp32Lengths covers every loop of every kernel: the scalar tails (0–7),
// each block width and its neighbours (8, 32, 64, 128 and ±1), sums of
// blocks — a ZMM block of 128 followed by each AVX tail (191–193) and by the
// ZMM block of 64 and each tail (255–257) — and long runs of the widest block
// with and without a tail.
func fp32Lengths() []int {
	var ns []int
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	return append(ns, 127, 128, 129, 191, 192, 193, 255, 256, 257, 512, 513)
}

// fp32Vec returns n values at offset off of a fresh buffer (off 1 and 3
// break the 16- and 32-byte alignment the allocator would give). With
// special set, about one value in six is NaN, ±Inf, −0 or a denormal.
func fp32Vec(r *rng.RNG, n, off int, special bool) []float32 {
	specials := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), 1e-40, -3e-42,
	}
	x := make([]float32, n+off)[off:]
	for i := range x {
		x[i] = float32(r.NormFloat64())
		if special && r.Intn(6) == 0 {
			x[i] = specials[r.Intn(len(specials))]
		}
	}
	return x
}

func cloneVec(x []float32) []float32 { return append([]float32(nil), x...) }

// guarded is a kernel output with a sentinel element on each side in the
// same allocation, so a store outside the slice is seen.
type guarded struct{ buf, v []float32 }

const fp32Sentinel = -12345.5

func newGuarded(x []float32) guarded {
	buf := make([]float32, len(x)+2)
	buf[0], buf[len(buf)-1] = fp32Sentinel, fp32Sentinel
	copy(buf[1:], x)
	return guarded{buf, buf[1 : 1+len(x) : 1+len(x)]}
}

func (g guarded) check(t *testing.T, ctx string) {
	t.Helper()
	if g.buf[0] != fp32Sentinel || g.buf[len(g.buf)-1] != fp32Sentinel {
		t.Fatalf("%s: kernel stored outside its destination", ctx)
	}
}

// TestAllFiniteAsmMatchesGo holds the vector finiteness scan to the portable
// one: every length 0…70 (every block width, its neighbours and each tail),
// aligned and not, all finite and with each special — the three that are not
// finite and the finite values closest to them in the bits — at each position.
// Skipped where the asm does not run.
func TestAllFiniteAsmMatchesGo(t *testing.T) {
	if !useFP32Asm {
		t.Skip("no AVX FP32 kernels on this build or host")
	}
	r := rng.New(73)
	specials := []float32{
		float32(math.NaN()), -float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7f800001), // a signalling NaN: exponent all ones, lowest mantissa bit
		1e-40, -math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32, float32(math.Copysign(0, -1)),
	}
	for n := 0; n <= 70; n++ {
		for _, off := range []int{0, 1, 3} {
			x := fp32Vec(r, n, off, false)
			if got, want := AllFinite(x), allFiniteGo(x); got != want || !want {
				t.Fatalf("n=%d off=%d finite: asm %v, go %v, want true", n, off, got, want)
			}
			for pos := 0; pos < n; pos++ {
				for _, v := range specials {
					keep := x[pos]
					x[pos] = v
					finite := !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0)
					if got, want := AllFinite(x), allFiniteGo(x); got != want || want != finite {
						t.Fatalf("n=%d off=%d x[%d]=%v (%#08x): asm %v, go %v, want %v", n, off, pos, v, math.Float32bits(v), got, want, finite)
					}
					x[pos] = keep
				}
			}
		}
	}
}

// TestFP32AsmMatchesGo holds each assembly kernel to its portable twin bit
// for bit, and the ZMM tier to the AVX one (see fp32Twins). Every other
// bit-identity suite in the repository (Serial vs Parallel, resume, served
// vs sequential) runs the same kernel on both sides, so a wrong kernel would
// pass them all; this is the test that compares the instruction encodings.
// Each side runs the public wrapper at its tier.
func TestFP32AsmMatchesGo(t *testing.T) {
	forFP32Twins(t, func(t *testing.T, tw fp32Twin) {
		r := rng.New(71)
		alphas := []float32{1.5, -0.3, 0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), 1e-40}
		for _, n := range fp32Lengths() {
			for _, off := range []int{0, 1, 3} {
				for _, special := range []bool{false, true} {
					ctx := fmt.Sprintf("n=%d off=%d special=%v", n, off, special)
					src, dst := fp32Vec(r, n, off, special), fp32Vec(r, n, off, special)

					got, want := newGuarded(dst), cloneVec(dst)
					tw.got.set()
					AddInPlace(got.v, src)
					tw.want.set()
					AddInPlace(want, src)
					tw.sameFloats(t, ctx+" add", got.v, want)
					got.check(t, ctx+" add")

					for _, alpha := range alphas {
						got, want = newGuarded(dst), cloneVec(dst)
						tw.got.set()
						axpy(alpha, got.v, src)
						tw.want.set()
						axpy(alpha, want, src)
						actx := fmt.Sprintf("%s axpy alpha=%v", ctx, alpha)
						tw.sameFloats(t, actx, got.v, want)
						got.check(t, actx)

						got, want = newGuarded(dst), cloneVec(dst)
						tw.got.set()
						Scale(got.v, alpha)
						tw.want.set()
						Scale(want, alpha)
						actx = fmt.Sprintf("%s Scale alpha=%v", ctx, alpha)
						tw.sameFloats(t, actx, got.v, want)
						got.check(t, actx)
					}

					tw.got.set()
					g := dot(dst, src)
					tw.want.set()
					if w := dot(dst, src); !tw.same(g, w) {
						t.Fatalf("%s Dot: %v (%#08x) != %v (%#08x)", ctx, g, math.Float32bits(g), w, math.Float32bits(w))
					}

					// axpyRun: k rows of b (row stride bs ≥ n) scaled by
					// multipliers as apart; a zero multiplier ends the run.
					for _, k := range []int{1, 2, 5} {
						for _, as := range []int{1, 3} {
							bs := n + off
							b := fp32Vec(r, k*bs+n, off, special)
							a := fp32Vec(r, (k-1)*as+1, off, false)
							for zeroAt := -1; zeroAt < k; zeroAt++ {
								a2 := cloneVec(a)
								if zeroAt >= 0 {
									a2[zeroAt*as] = float32(math.Copysign(0, float64(zeroAt%2)-0.5))
								}
								got, want = newGuarded(dst), cloneVec(dst)
								tw.got.set()
								gk := axpyRun(got.v, a2, as, b, bs, k)
								tw.want.set()
								wk := axpyRun(want, a2, as, b, bs, k)
								rctx := fmt.Sprintf("%s axpyRun k=%d as=%d zeroAt=%d", ctx, k, as, zeroAt)
								if gk != wk {
									t.Fatalf("%s: ran %d rows, want %d", rctx, gk, wk)
								}
								tw.sameFloats(t, rctx, got.v, want)
								got.check(t, rctx)
							}
						}
					}

					// The Dot family: k = n elements per row against 0–23 b
					// rows (every column loop of every routine: the eight-wide
					// pass once and twice, each followed by every remainder
					// through the four- and one-column passes). dotRows4 takes
					// a0, a1, b's first row (src where b has none) and src.
					a0, a1 := src, dst
					for cols := 0; cols <= 23; cols++ {
						b := fp32Vec(r, cols*n, off, special)
						w0, w1 := make([]float32, cols), make([]float32, cols)
						g0, g1 := newGuarded(w0), newGuarded(w1)
						dctx := fmt.Sprintf("%s dotRows cols=%d", ctx, cols)
						tw.got.set()
						dotRows1(g0.v, a0, b)
						tw.want.set()
						dotRows1(w0, a0, b)
						tw.sameFloats(t, dctx+" one row", g0.v, w0)
						tw.got.set()
						dotRows2(g0.v, g1.v, a0, a1, b)
						tw.want.set()
						dotRows2(w0, w1, a0, a1, b)
						tw.sameFloats(t, dctx+" two rows, row 0", g0.v, w0)
						tw.sameFloats(t, dctx+" two rows, row 1", g1.v, w1)
						g0.check(t, dctx)
						g1.check(t, dctx)
						third := append(cloneVec(b[:min(n, len(b))]), src...)[:n]
						a4 := append(append(append(cloneVec(a0), a1...), third...), src...)
						tw.got.set()
						g4 := dotRows4Strided(t, dctx+" four rows", a4, b, cols)
						tw.want.set()
						w4 := dotRows4Strided(t, dctx+" four rows", a4, b, cols)
						for r := range g4 {
							tw.sameFloats(t, fmt.Sprintf("%s four rows, row %d", dctx, r), g4[r], w4[r])
						}
					}
				}
			}
		}
	})
}

// FuzzDotRowsMatchesGo feeds arbitrary bit patterns to the Dot family at
// each assembly tier the host has: dotRows1 and dotRows2 must agree with
// dotGo and dot2Go bit for bit (a NaN with a NaN: which operand's payload
// the Go loops keep is the compiler's choice, see sameFloat). The assembly
// fixes its operand order, so among its own routines the payloads must
// agree too: at each tier every column of dotRows1 equals dotRows2's row 0
// and dotRows1 over that column alone, whichever lane and pass width
// computed it, and the ZMM tier's three outputs equal the AVX tier's. k and
// the column count come from the input, so every loop and remainder of every
// routine is reached; the values fill a0, a1 and b in turn, cycling through
// the input's floats when it is short.
func FuzzDotRowsMatchesGo(f *testing.F) {
	if !useFP32Asm {
		f.Skip("no AVX FP32 kernels on this build or host")
	}
	if !useFP32AVX512 {
		f.Log("no AVX-512 on this host: the ZMM tier is not fuzzed")
	}
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(7), uint8(9), []byte("\x00\x00\x80\x3f\x01\x00\xc0\x7f\x00\x00\x80\xff\x02\x00\xc0\xff"))
	seed := make([]byte, 4*37)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(uint8(37), uint8(17), seed)
	f.Add(uint8(13), uint8(23), seed) // two eight-wide passes, then a four and three ones
	// The same passes over three NaN payloads. With k = 10, row j starts
	// 2k + jk floats into the cycle, so every column position of the
	// eight-wide pass multiplies a and b NaNs of different payloads in one of
	// the two passes, and every second step adds two different payloads: a
	// routine that swaps the operands of a VMULPS or a VADDPS keeps the
	// other payload than dotRows1 does.
	nans := []byte("\x01\x00\xc0\x7f\x02\x00\xc0\x7f\x03\x00\xc0\xff")
	f.Add(uint8(10), uint8(23), nans)
	// Four payloads, one per partial of each output, so each add of the
	// (s0+s1)+(s2+s3) combine meets two NaNs of different payloads: a
	// combine that puts the other operand first keeps the other payload.
	f.Add(uint8(4), uint8(16), []byte("\x01\x00\xc0\x7f\x02\x00\xc0\x7f\x03\x00\xc0\x7f\x04\x00\xc0\x7f"))
	defer restoreFP32Gates()()
	f.Fuzz(func(t *testing.T, kb, colsb uint8, raw []byte) {
		k, cols := int(kb)%72, int(colsb)%24
		vals := make([]float32, (4+cols)*k)
		if m := len(raw) / 4; m > 0 {
			for i := range vals {
				vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(i%m):]))
			}
		}
		a0, a1, b := vals[:k], vals[k:2*k], vals[4*k:]
		a := vals[:4*k] // dotRows4's four rows: a0, a1, then two more
		// payload: compare NaN payloads too (both sides are assembly).
		type dotCheck struct {
			what      string
			got, want float32
			payload   bool
		}
		type outputs struct {
			one, r0, r1 []float32
			four        [4][]float32
		}
		var avx outputs
		for _, tier := range []fp32Tier{tierAVX, tierZMM} {
			if !tier.available() {
				continue
			}
			tier.set()
			one := newGuarded(make([]float32, cols))
			g0, g1 := newGuarded(make([]float32, cols)), newGuarded(make([]float32, cols))
			dotRows1(one.v, a0, b)
			dotRows2(g0.v, g1.v, a0, a1, b)
			one.check(t, tier.String()+" one row")
			g0.check(t, tier.String()+" two rows, row 0")
			g1.check(t, tier.String()+" two rows, row 1")
			four := dotRows4Strided(t, tier.String()+" four rows", a, b, cols)
			if tier == tierAVX {
				avx = outputs{one.v, g0.v, g1.v, four}
			}
			for j := 0; j < cols; j++ {
				bj := b[j*k : (j+1)*k]
				w0, w1 := dot2Go(a0, a1, bj)
				checks := []dotCheck{
					{"dotRows1 vs dotGo", one.v[j], dotGo(a0, bj), false},
					{"dotRows2 row 0 vs dot2Go", g0.v[j], w0, false},
					{"dotRows2 row 1 vs dot2Go", g1.v[j], w1, false},
					{"dotRows1 vs dotRows2 row 0", one.v[j], g0.v[j], true},
					{"dotRows1 vs itself on one column", one.v[j], dot(a0, bj), true},
					{"dotRows4 row 0 vs dotRows1", four[0][j], one.v[j], true},
					{"dotRows4 row 1 vs dotRows2 row 1", four[1][j], g1.v[j], true},
					{"dotRows4 row 2 vs dotGo", four[2][j], dotGo(a[2*k:3*k], bj), false},
					{"dotRows4 row 3 vs dotGo", four[3][j], dotGo(a[3*k:], bj), false},
					{"dotRows4 row 3 vs dotRows1", four[3][j], dot(a[3*k:], bj), true},
				}
				if tier == tierZMM {
					checks = append(checks, []dotCheck{
						{"dotRows1 zmm vs avx", one.v[j], avx.one[j], true},
						{"dotRows2 row 0 zmm vs avx", g0.v[j], avx.r0[j], true},
						{"dotRows2 row 1 zmm vs avx", g1.v[j], avx.r1[j], true},
						{"dotRows4 row 2 zmm vs avx", four[2][j], avx.four[2][j], true},
						{"dotRows4 row 3 zmm vs avx", four[3][j], avx.four[3][j], true},
					}...)
				}
				for _, c := range checks {
					if math.Float32bits(c.got) != math.Float32bits(c.want) && (c.payload || !sameFloat(c.got, c.want)) {
						t.Fatalf("%s: k=%d cols=%d column %d, %s: %#08x != %#08x", tier, k, cols, j, c.what,
							math.Float32bits(c.got), math.Float32bits(c.want))
					}
				}
			}
		}
	})
}

// FuzzAxpyRunMatchesGo feeds arbitrary bit patterns to axpyRun at each
// assembly tier the host has: dst, the multipliers and the b rows cycle
// through the input's floats, and the length (up to 271 columns: a ZMM block
// of 128 or 64 followed by any AVX tail), the run length k, both strides and
// the position and sign of a forced zero multiplier come from the input.
// Each tier must run as many rows as axpyRunGo and agree with it bit for bit
// (NaN payloads aside, see sameFloat), and the ZMM tier with the AVX one,
// NaN payloads included.
func FuzzAxpyRunMatchesGo(f *testing.F) {
	if !useFP32Asm {
		f.Skip("no AVX FP32 kernels on this build or host")
	}
	if !useFP32AVX512 {
		f.Log("no AVX-512 on this host: the ZMM tier is not fuzzed")
	}
	f.Add(uint16(0), uint8(0), uint8(0), uint8(0), uint8(0), []byte{})
	seed := make([]byte, 4*41)
	for i := range seed {
		seed[i] = byte(i * 41)
	}
	// zb/2 is the forced zero's step (none when it is k or more), zb&1 its
	// sign bit clear.
	f.Add(uint16(193), uint8(5), uint8(2), uint8(3), uint8(16), seed)
	f.Add(uint16(257), uint8(4), uint8(0), uint8(1), uint8(5), seed) // +0 at step 2
	// NaN payloads in dst, the multipliers and b, and no zero multiplier: an
	// operand swapped in a VMULPS or a VADDPS keeps the other payload.
	f.Add(uint16(64), uint8(3), uint8(1), uint8(0), uint8(16), []byte("\x01\x00\xc0\x7f\x02\x00\xc0\x7f\x03\x00\xc0\xff"))
	// dst finite where the first multiplier and its b element are NaNs of
	// different payloads (every third column, with n = 64 and as = 3): the
	// product's payload reaches dst only if the multiplier stays first.
	f.Add(uint16(64), uint8(3), uint8(2), uint8(0), uint8(16), []byte("\x00\x00\x80\x3f\x01\x00\xc0\x7f\x02\x00\xc0\xff"))
	defer restoreFP32Gates()()
	f.Fuzz(func(t *testing.T, nb uint16, kb, asb, bsb, zb uint8, raw []byte) {
		n, k := int(nb)%272, int(kb)%9
		as, bs := 1+int(asb)%4, n+int(bsb)%5
		vals := make([]float32, n+max(k-1, 0)*(as+bs)+1+n)
		if m := len(raw) / 4; m > 0 {
			for i := range vals {
				vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(i%m):]))
			}
		}
		dst, a, b := vals[:n], vals[n:n+max(k-1, 0)*as+1], vals[n+max(k-1, 0)*as+1:]
		a = cloneVec(a)
		if z := int(zb>>1) % 9; z < k {
			a[z*as] = float32(math.Copysign(0, float64(zb&1)-0.5))
		}
		want := cloneVec(dst)
		wk := axpyRunGo(want, a, as, b, bs, k)
		var avx []float32
		for _, tier := range []fp32Tier{tierAVX, tierZMM} {
			if !tier.available() {
				continue
			}
			tier.set()
			got := newGuarded(dst)
			gk := axpyRun(got.v, a, as, b, bs, k)
			ctx := fmt.Sprintf("%s: n=%d k=%d as=%d bs=%d", tier, n, k, as, bs)
			got.check(t, ctx)
			if gk != wk {
				t.Fatalf("%s: ran %d rows, go %d", ctx, gk, wk)
			}
			sameFloats(t, ctx+" vs go", got.v, want)
			if tier == tierAVX {
				avx = got.v
			} else {
				fp32Twin{tierZMM, tierAVX}.sameFloats(t, ctx+" vs avx", got.v, avx)
			}
		}
	})
}

// dot is the one-row case of dotRows1: the inner product of a and b in the
// canonical order every a@bᵀ kernel in the package reproduces (see dotGo).
func dot(a, b []float32) float32 {
	var r [1]float32
	dotRows1(r[:], a, b)
	return r[0]
}

// dotRows4Strided runs dotRows4 for the four rows of a (back to back) into
// an output with a row stride of cols+3, a sentinel in every gap between the
// rows and one on each side, fails if any of them is overwritten, and
// returns the four output rows.
func dotRows4Strided(t *testing.T, ctx string, a, b []float32, cols int) [4][]float32 {
	t.Helper()
	ds := cols + 3
	g := newGuarded(make([]float32, 3*ds+cols))
	for i := range g.v {
		if i%ds >= cols {
			g.v[i] = fp32Sentinel
		}
	}
	dotRows4(g.v, ds, a, b)
	g.check(t, ctx)
	var rows [4][]float32
	for i := range g.v {
		if i%ds >= cols && g.v[i] != fp32Sentinel {
			t.Fatalf("%s: dotRows4 stored between rows, at %d", ctx, i)
		}
	}
	for r := range rows {
		rows[r] = g.v[r*ds : r*ds+cols]
	}
	return rows
}

// TestFP32WrapperBounds pins the asm boundary: the wrappers bound every
// operand before taking its address, so an operand shorter than the kernel
// will read or write still panics (as the portable loops do) instead of
// touching memory past the slice, and empty operands never reach &x[0].
func TestFP32WrapperBounds(t *testing.T) {
	v := func(n int) []float32 { return make([]float32, n) }
	for name, f := range map[string]func(){
		"axpy short src":      func() { axpy(1, v(8), v(7)) },
		"Axpy mismatch":       func() { Axpy(1, v(8), v(9)) },
		"AddInPlace mismatch": func() { AddInPlace(v(8), v(7)) },
		"axpyRun short a":     func() { axpyRun(v(8), []float32{1, 1}, 2, v(24), 8, 3) },
		"axpyRun short b":     func() { axpyRun(v(8), []float32{1, 1, 1}, 1, v(23), 8, 3) },
		"dotRows1 short b":    func() { dotRows1(v(3), v(8), v(23)) },
		"dotRows2 short d1":   func() { dotRows2(v(3), v(2), v(8), v(8), v(24)) },
		"dotRows2 short a1":   func() { dotRows2(v(3), v(3), v(8), v(7), v(24)) },
		"dotRows2 short b":    func() { dotRows2(v(3), v(3), v(8), v(8), v(23)) },
		"dotRows4 short b":    func() { dotRows4(v(3*8+8), 8, v(32), v(63)) },
		"dotRows4 short d":    func() { dotRows4(v(3*8-1), 8, v(32), v(64)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", name)
				}
			}()
			f()
		}()
	}
	// Empty operands are legal and must not panic.
	axpy(1, nil, nil)
	AddInPlace(nil, nil)
	Scale(nil, 2)
	if dot(nil, nil) != 0 {
		t.Error("Dot of empty vectors must be 0")
	}
	if n := axpyRun(nil, []float32{1}, 1, nil, 0, 1); n != 1 {
		t.Errorf("axpyRun into an empty dst ran %d rows, want 1", n)
	}
	dotRows1(nil, v(4), nil)
	d0, d1 := v(2), v(2)
	d0[0], d1[1] = 9, 9
	dotRows2(d0, d1, nil, nil, nil) // zero-length rows: every Dot is 0
	if d0[0] != 0 || d1[1] != 0 {
		t.Error("Dot over zero-length rows must write 0")
	}
	d4 := v(3*3 + 2)
	d4[0], d4[9+1] = 9, 9
	dotRows4(d4, 3, nil, nil)
	if d4[0] != 0 || d4[9+1] != 0 {
		t.Error("dotRows4 over zero-length rows must write 0")
	}
}

// fp32Shapes are the products the benchmark workloads issue — train_word
// (batch 4, 20 steps, D 64, H 128, 4H = 512, up to 208 sampled classes),
// train_char_comm (batch 1, H 256) and serve_zipf_open (V 8000, D 128,
// H 256, 4H = 1024, mostly at batch 1, up to 8 rows) — plus odd extents that
// leave every block width a remainder. The word LM runs only h·Whᵀ and dz·Wh
// per timestep; every other product covers the whole 80-row sequence slab.
// m, k, n are dst rows, inner extent, dst columns.
var fp32Shapes = []struct {
	kernel  string
	m, k, n int
}{
	{"MatMulABT", 80, 64, 512},     // x·Wxᵀ: 80×64·(512×64)ᵀ
	{"MatMulABT", 4, 128, 512},     // h·Whᵀ: 4×128·(512×128)ᵀ
	{"MatMulABT", 80, 128, 64},     // projection: 80×128·(64×128)ᵀ
	{"MatMulABT", 80, 64, 208},     // sampled logits: 80×64·(208×64)ᵀ
	{"MatMulABT", 5, 67, 131},      //
	{"MatMul", 80, 512, 64},        // dx = dz·Wx: 80×512·512×64
	{"MatMul", 4, 512, 128},        // dz·Wh: 4×512·512×128
	{"MatMul", 3, 129, 77},         //
	{"MatMulATBAcc", 512, 80, 64},  // gWx += dzᵀ·x: 512×64 += (80×512)ᵀ·80×64
	{"MatMulATBAcc", 512, 80, 128}, // gWh += dzᵀ·h: 512×128 += (80×512)ᵀ·80×128
	{"MatMulATBAcc", 67, 5, 131},   //
	{"MatMulABT", 8, 128, 8000},    // logits: 8×128·(8000×128)ᵀ
	{"MatMulABT", 1, 256, 256},     // char LM, batch 1: s·Rᵀ
	{"MatMul", 1, 256, 256},        // char LM: dz·R
	{"MatMulATBAcc", 256, 1, 256},  // char LM: gR += dzᵀ·s
	{"MatMulABT", 7, 33, 101},      //
	{"MatMulABT", 1, 128, 1024},    // serving, batch 1: x·Wxᵀ
	{"MatMulABT", 1, 256, 1024},    // serving, batch 1: h·Whᵀ
	{"MatMulABT", 1, 128, 8000},    // serving, batch 1: logits
}

// fp32Case is one shape's operands in the orientation its kernel takes, the
// call, and whether the oracle reads a or b transposed.
type fp32Case struct {
	dst, a, b *Matrix
	call      func()
	at, bt    bool
}

func newFP32Case(r *rng.RNG, kernel string, m, k, n int) fp32Case {
	c := fp32Case{dst: randMatrix(r, m, n)}
	switch kernel {
	case "MatMul":
		c.a, c.b = randMatrix(r, m, k), randMatrix(r, k, n)
		c.call = func() { MatMul(c.dst, c.a, c.b) }
	case "MatMulATBAcc":
		c.a, c.b, c.at = randMatrix(r, k, m), randMatrix(r, k, n), true
		c.call = func() { MatMulATBAcc(c.dst, c.a, c.b) }
	case "MatMulABT":
		c.a, c.b, c.bt = randMatrix(r, m, k), randMatrix(r, n, k), true
		c.call = func() { MatMulABT(c.dst, c.a, c.b) }
	default:
		panic("unknown kernel " + kernel)
	}
	return c
}

// TestFP32KernelsAgainstFloat64 checks the matmuls for numerical truth, not
// just determinism, at shapes that reach the 8-, 32- and 64-wide vector
// bodies (TestMatMul*AgainstNaive draw extents from 1–8 and never do). The
// oracle accumulates in float64; the bound is the textbook one for a
// float32 sum of t rounded products in any order, |err| ≤ γ·Σ|aᵢbᵢ| with
// γ = t·2⁻²⁴/(1 − t·2⁻²⁴) (t = k, plus one for MatMulATBAcc's prior dst),
// which every tier must meet.
func TestFP32KernelsAgainstFloat64(t *testing.T) {
	for _, tier := range fp32Tiers {
		if !tier.available() {
			t.Logf("no %s FP32 kernels on this build or host", tier)
			continue
		}
		tier.with(func() {
			r := rng.New(23)
			for _, s := range fp32Shapes {
				c := newFP32Case(r, s.kernel, s.m, s.k, s.n)
				dst, a, b := c.dst, c.a, c.b
				prior := dst.Clone()
				c.call()
				terms := float64(s.k)
				if s.kernel == "MatMulATBAcc" {
					terms++
				}
				gamma := terms * 0x1p-24 / (1 - terms*0x1p-24)
				for i := 0; i < s.m; i++ {
					for j := 0; j < s.n; j++ {
						var want, mag float64
						if s.kernel == "MatMulATBAcc" {
							want = float64(prior.At(i, j))
							mag = math.Abs(want)
						}
						for k := 0; k < s.k; k++ {
							ai, bi := i*a.Cols+k, k*b.Cols+j
							if c.at {
								ai = k*a.Cols + i
							}
							if c.bt {
								bi = j*b.Cols + k
							}
							av, bv := a.Data[ai], b.Data[bi]
							p := float64(av) * float64(bv)
							want += p
							mag += math.Abs(p)
						}
						if got := float64(dst.At(i, j)); math.Abs(got-want) > gamma*mag {
							t.Fatalf("%s %dx%dx%d %s: element (%d,%d) = %v, float64 oracle %v, error %.3g > bound %.3g",
								s.kernel, s.m, s.k, s.n, tier, i, j, got, want, math.Abs(got-want), gamma*mag)
						}
					}
				}
			}
		})
	}
}

// TestFP32PortableMatchesAsmEndToEnd runs the public matmuls over every
// backend shape at each pair of tiers (see fp32Twins): one set of semantics,
// three instruction encodings, including the zero-multiplier skip and the
// signed zeros it preserves.
func TestFP32PortableMatchesAsmEndToEnd(t *testing.T) {
	forFP32Twins(t, func(t *testing.T, tw fp32Twin) {
		r := rng.New(131)
		shapes := append([][3]int{{4, 64, 512}, {17, 33, 64}, {512, 4, 64}, {6, 40, 193}}, backendShapes...)
		for _, shape := range shapes {
			m, k, n := shape[0], shape[1], shape[2]
			for _, kernel := range []string{"MatMul", "MatMulATBAcc", "MatMulABT"} {
				c := newFP32Case(r, kernel, m, k, n)
				// A third of the multipliers are ±0 so runs break and resume.
				for i := range c.a.Data {
					if r.Intn(3) == 0 {
						c.a.Data[i] = float32(math.Copysign(0, float64(r.Intn(2))-0.5))
					}
				}
				prior := c.dst.Clone()
				tw.got.with(c.call)
				got := c.dst.Clone()
				copy(c.dst.Data, prior.Data)
				tw.want.with(c.call)
				tw.sameFloats(t, fmt.Sprintf("%s %dx%dx%d", kernel, m, k, n), got.Data, c.dst.Data)
			}
		}
	})
}

var fp32Sink float32

// BenchmarkFP32Kernels times the matmuls at the shapes the models issue, at
// each tier the host has (zmm, avx, go), and reports GFLOP/s (2·m·k·n per
// call) — ROADMAP item 1's tensor rung under `go test -bench`.
func BenchmarkFP32Kernels(b *testing.B) {
	for _, s := range fp32Shapes {
		for _, tier := range fp32Tiers {
			if !tier.available() {
				continue
			}
			b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", s.kernel, s.m, s.k, s.n, tier), func(b *testing.B) {
				c := newFP32Case(rng.New(1), s.kernel, s.m, s.k, s.n)
				tier.with(func() {
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.call()
					}
					b.StopTimer()
				})
				fp32Sink = c.dst.Data[0]
				flop := 2 * float64(s.m) * float64(s.k) * float64(s.n)
				b.ReportMetric(flop*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
			})
		}
	}
}
