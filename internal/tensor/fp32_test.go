package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"zipflm/internal/rng"
)

// withFP32Asm runs fn with the assembly gate forced off (on=false) or left as
// CPUID set it (on=true; a host without the kernels stays portable).
func withFP32Asm(on bool, fn func()) {
	old := useFP32Asm
	useFP32Asm = on && old
	defer func() { useFP32Asm = old }()
	fn()
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
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s: element %d: asm %v (%#08x) != go %v (%#08x)", ctx, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// fp32Lengths covers every loop of every kernel: the scalar tails (0–7),
// each block width and its neighbours (8, 32, 64 and ±1), sums of blocks, and
// long runs of the widest block with and without a tail.
func fp32Lengths() []int {
	var ns []int
	for n := 0; n <= 70; n++ {
		ns = append(ns, n)
	}
	return append(ns, 127, 128, 129, 512, 513)
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
			if got, want := allFinite(x), allFiniteGo(x); got != want || !want {
				t.Fatalf("n=%d off=%d finite: asm %v, go %v, want true", n, off, got, want)
			}
			for pos := 0; pos < n; pos++ {
				for _, v := range specials {
					keep := x[pos]
					x[pos] = v
					finite := !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0)
					if got, want := allFinite(x), allFiniteGo(x); got != want || want != finite {
						t.Fatalf("n=%d off=%d x[%d]=%v (%#08x): asm %v, go %v, want %v", n, off, pos, v, math.Float32bits(v), got, want, finite)
					}
					x[pos] = keep
				}
			}
		}
	}
}

// TestFP32AsmMatchesGo holds each AVX kernel to its portable twin bit for
// bit. Every other bit-identity suite in the repository (Serial vs Parallel,
// resume, served vs sequential) runs the same kernel on both sides, so a
// wrong kernel would pass them all; this is the test that compares the two
// instruction encodings. Skipped where the asm does not run.
func TestFP32AsmMatchesGo(t *testing.T) {
	if !useFP32Asm {
		t.Skip("no AVX FP32 kernels on this build or host")
	}
	r := rng.New(71)
	alphas := []float32{1.5, -0.3, 0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), 1e-40}
	for _, n := range fp32Lengths() {
		for _, off := range []int{0, 1, 3} {
			for _, special := range []bool{false, true} {
				ctx := fmt.Sprintf("n=%d off=%d special=%v", n, off, special)
				src, dst := fp32Vec(r, n, off, special), fp32Vec(r, n, off, special)

				got, want := newGuarded(dst), cloneVec(dst)
				AddInPlace(got.v, src)
				addGo(want, src)
				sameFloats(t, ctx+" add", got.v, want)
				got.check(t, ctx+" add")

				for _, alpha := range alphas {
					got, want = newGuarded(dst), cloneVec(dst)
					axpy(alpha, got.v, src)
					axpyGo(alpha, want, src)
					actx := fmt.Sprintf("%s axpy alpha=%v", ctx, alpha)
					sameFloats(t, actx, got.v, want)
					got.check(t, actx)

					got, want = newGuarded(dst), cloneVec(dst)
					Scale(got.v, alpha)
					scaleGo(want, alpha)
					actx = fmt.Sprintf("%s Scale alpha=%v", ctx, alpha)
					sameFloats(t, actx, got.v, want)
					got.check(t, actx)
				}

				if g, w := dot(dst, src), dotGo(dst, src); !sameFloat(g, w) {
					t.Fatalf("%s Dot: asm %v (%#08x) != go %v (%#08x)", ctx, g, math.Float32bits(g), w, math.Float32bits(w))
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
							gk := axpyRun(got.v, a2, as, b, bs, k)
							wk := axpyRunGo(want, a2, as, b, bs, k)
							rctx := fmt.Sprintf("%s axpyRun k=%d as=%d zeroAt=%d", ctx, k, as, zeroAt)
							if gk != wk {
								t.Fatalf("%s: asm ran %d rows, go %d", rctx, gk, wk)
							}
							sameFloats(t, rctx, got.v, want)
							got.check(t, rctx)
						}
					}
				}

				// The Dot family: k = n elements per row against 0–23 b rows
				// (every column loop of both routines: the eight-wide pass
				// once and twice, each followed by every remainder through
				// the four- and one-column passes).
				a0, a1 := src, dst
				for cols := 0; cols <= 23; cols++ {
					b := fp32Vec(r, cols*n, off, special)
					w0, w1 := make([]float32, cols), make([]float32, cols)
					g0, g1 := newGuarded(w0), newGuarded(w1)
					dctx := fmt.Sprintf("%s dotRows cols=%d", ctx, cols)
					dotRows1(g0.v, a0, b)
					for j := range w0 {
						w0[j] = dotGo(a0, b[j*n:(j+1)*n])
					}
					sameFloats(t, dctx+" one row", g0.v, w0)
					dotRows2(g0.v, g1.v, a0, a1, b)
					for j := range w0 {
						w0[j], w1[j] = dot2Go(a0, a1, b[j*n:(j+1)*n])
					}
					sameFloats(t, dctx+" two rows, row 0", g0.v, w0)
					sameFloats(t, dctx+" two rows, row 1", g1.v, w1)
					g0.check(t, dctx)
					g1.check(t, dctx)
				}
			}
		}
	}
}

// FuzzDotRowsMatchesGo feeds arbitrary bit patterns to the Dot family:
// dotRows1 and dotRows2 must agree with dotGo and dot2Go bit for bit (a NaN
// with a NaN: which operand's payload the Go loops keep is the compiler's
// choice, see sameFloat). The assembly fixes its operand order, so among
// its own routines the payloads must agree too: every column of dotRows1
// equals dotRows2's row 0 and dotRows1 over that column alone, whichever
// lane and pass width computed it. k and the column count come from the
// input, so every loop and remainder of both routines is reached; the values
// fill a0, a1 and b in turn, cycling through the input's floats when it is
// short.
func FuzzDotRowsMatchesGo(f *testing.F) {
	if !useFP32Asm {
		f.Skip("no AVX FP32 kernels on this build or host")
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
	f.Fuzz(func(t *testing.T, kb, colsb uint8, raw []byte) {
		k, cols := int(kb)%72, int(colsb)%24
		vals := make([]float32, (2+cols)*k)
		if m := len(raw) / 4; m > 0 {
			for i := range vals {
				vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(i%m):]))
			}
		}
		a0, a1, b := vals[:k], vals[k:2*k], vals[2*k:]
		one := newGuarded(make([]float32, cols))
		g0, g1 := newGuarded(make([]float32, cols)), newGuarded(make([]float32, cols))
		dotRows1(one.v, a0, b)
		dotRows2(g0.v, g1.v, a0, a1, b)
		one.check(t, "fuzz one row")
		g0.check(t, "fuzz two rows, row 0")
		g1.check(t, "fuzz two rows, row 1")
		for j := 0; j < cols; j++ {
			bj := b[j*k : (j+1)*k]
			w0, w1 := dot2Go(a0, a1, bj)
			for _, c := range []struct {
				what      string
				got, want float32
				payload   bool
			}{
				{"dotRows1 vs dotGo", one.v[j], dotGo(a0, bj), false},
				{"dotRows2 row 0 vs dot2Go", g0.v[j], w0, false},
				{"dotRows2 row 1 vs dot2Go", g1.v[j], w1, false},
				{"dotRows1 vs dotRows2 row 0", one.v[j], g0.v[j], true},
				{"dotRows1 vs itself on one column", one.v[j], dot(a0, bj), true},
			} {
				if math.Float32bits(c.got) != math.Float32bits(c.want) && (c.payload || !sameFloat(c.got, c.want)) {
					t.Fatalf("k=%d cols=%d column %d, %s: %#08x != %#08x", k, cols, j, c.what,
						math.Float32bits(c.got), math.Float32bits(c.want))
				}
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
	{"MatMulABT", 80, 64, 512},        // x·Wxᵀ: 80×64·(512×64)ᵀ
	{"MatMulABT", 4, 128, 512},        // h·Whᵀ: 4×128·(512×128)ᵀ
	{"MatMulABT", 80, 128, 64},        // projection: 80×128·(64×128)ᵀ
	{"MatMulABT", 80, 64, 208},        // sampled logits: 80×64·(208×64)ᵀ
	{"MatMulABT", 5, 67, 131},         //
	{"MatMul", 80, 512, 64},           // dx = dz·Wx: 80×512·512×64
	{"MatMul", 4, 512, 128},           // dz·Wh: 4×512·512×128
	{"MatMul", 3, 129, 77},            //
	{"MatMulATBAcc", 512, 80, 64},     // gWx += dzᵀ·x: 512×64 += (80×512)ᵀ·80×64
	{"MatMulATBAcc", 512, 80, 128},    // gWh += dzᵀ·h: 512×128 += (80×512)ᵀ·80×128
	{"MatMulATBAcc", 67, 5, 131},      //
	{"MatMulABTStream", 8, 128, 8000}, // logits: 8×128·(8000×128)ᵀ
	{"MatMulABT", 1, 256, 256},        // char LM, batch 1: s·Rᵀ
	{"MatMul", 1, 256, 256},           // char LM: dz·R
	{"MatMulATBAcc", 256, 1, 256},     // char LM: gR += dzᵀ·s
	{"MatMulABTStream", 7, 33, 101},   //
	{"MatMulABTStream", 1, 128, 1024}, // serving, batch 1: x·Wxᵀ
	{"MatMulABTStream", 1, 256, 1024}, // serving, batch 1: h·Whᵀ
	{"MatMulABTStream", 1, 128, 8000}, // serving, batch 1: logits
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
	case "MatMulABTStream":
		c.a, c.b, c.bt = randMatrix(r, m, k), randMatrix(r, n, k), true
		c.call = func() { MatMulABTStream(c.dst, c.a, c.b) }
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
// which both the asm and the portable path must meet.
func TestFP32KernelsAgainstFloat64(t *testing.T) {
	for _, asm := range []bool{true, false} {
		withFP32Asm(asm, func() {
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
							t.Fatalf("%s %dx%dx%d asm=%v: element (%d,%d) = %v, float64 oracle %v, error %.3g > bound %.3g",
								s.kernel, s.m, s.k, s.n, useFP32Asm, i, j, got, want, math.Abs(got-want), gamma*mag)
						}
					}
				}
			}
		})
	}
}

// TestFP32PortableMatchesAsmEndToEnd runs the public matmuls over every
// backend shape with the gate on and off: one set of semantics, two
// instruction encodings, including the zero-multiplier skip and the signed
// zeros it preserves.
func TestFP32PortableMatchesAsmEndToEnd(t *testing.T) {
	if !useFP32Asm {
		t.Skip("no AVX FP32 kernels on this build or host")
	}
	r := rng.New(131)
	shapes := append([][3]int{{4, 64, 512}, {17, 33, 64}, {512, 4, 64}}, backendShapes...)
	for _, shape := range shapes {
		m, k, n := shape[0], shape[1], shape[2]
		for _, kernel := range []string{"MatMul", "MatMulATBAcc", "MatMulABT", "MatMulABTStream"} {
			c := newFP32Case(r, kernel, m, k, n)
			// A third of the multipliers are ±0 so runs break and resume.
			for i := range c.a.Data {
				if r.Intn(3) == 0 {
					c.a.Data[i] = float32(math.Copysign(0, float64(r.Intn(2))-0.5))
				}
			}
			prior := c.dst.Clone()
			c.call()
			got := c.dst.Clone()
			copy(c.dst.Data, prior.Data)
			withFP32Asm(false, c.call)
			sameFloats(t, fmt.Sprintf("%s %dx%dx%d", kernel, m, k, n), got.Data, c.dst.Data)
		}
	}
}

var fp32Sink float32

// BenchmarkFP32Kernels times the matmuls at the shapes the models issue, on
// the asm path and on the portable path, and reports GFLOP/s (2·m·k·n per
// call) — ROADMAP item 1's tensor rung under `go test -bench`.
func BenchmarkFP32Kernels(b *testing.B) {
	for _, s := range fp32Shapes {
		for _, asm := range []bool{true, false} {
			path := "go"
			if asm {
				if !useFP32Asm {
					continue
				}
				path = "asm"
			}
			b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", s.kernel, s.m, s.k, s.n, path), func(b *testing.B) {
				c := newFP32Case(rng.New(1), s.kernel, s.m, s.k, s.n)
				withFP32Asm(asm, func() {
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
