package optim

import (
	"fmt"
	"math"
	"testing"

	"zipflm/internal/model"
	"zipflm/internal/rng"
	"zipflm/internal/tensor"
)

// withAdamAsm runs fn with the assembly gate forced off (on=false) or left as
// CPUID set it (on=true; a host without AVX stays portable).
func withAdamAsm(on bool, fn func()) {
	old := useAdamAsm
	useAdamAsm = on && old
	defer func() { useAdamAsm = old }()
	fn()
}

// Bit equality, except that any NaN equals any NaN: which operand's payload
// survives an x86 operation on two NaNs depends on operand order, which is
// the Go compiler's choice in the portable loops (as in TestFP32AsmMatchesGo).
func same32(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

var (
	// nearMinNormal brackets the flush threshold: what 0.9× or 0.999× carries
	// from just above 2⁻¹²⁶ to just below it, the threshold itself, its
	// neighbours one ulp either side, and a denormal a legacy checkpoint
	// could restore.
	nearMinNormal = []float32{
		minNormal, -minNormal, math.Float32frombits(0x00800001), math.Float32frombits(0x007fffff),
		-math.Float32frombits(0x007fffff), minNormal / 0.9, -minNormal / 0.9, minNormal / 0.999, 1.3e-38, -1.2e-38, 1e-39,
	}
	negZero32 = float32(math.Copysign(0, -1))
	specials  = []float32{
		0, negZero32, 1e-40, -3e-42, math.SmallestNonzeroFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), math.MaxFloat32, -math.MaxFloat32,
	}
)

// optimVec returns n values; with special set about one in five is ±0, a
// denormal, ±Inf, NaN or ±MaxFloat32.
func optimVec(r *rng.RNG, n int, scale float64, special bool) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = float32(r.NormFloat64() * scale)
		if special && r.Intn(5) == 0 {
			x[i] = specials[r.Intn(len(specials))]
		}
	}
	return x
}

// TestAdamAsmMatchesGo holds the AVX Adam kernel to the portable loop bit for
// bit: parameters and both moments, over several consecutive steps so the
// moments the kernel wrote are the ones it reads next. Each case starts both
// optimizers from the same snapshot at step t0 (t0 = 0 also covers v = 0 and
// the lazily created moments; a large t0 the bias corrections near 1); the
// restored moments include values just above, at and just below the flush
// threshold 2⁻¹²⁶, of both signs, so one decay step carries them across it.
// Skipped where the asm does not run.
func TestAdamAsmMatchesGo(t *testing.T) {
	if !useAdamAsm {
		t.Skip("no AVX Adam kernel on this build or host")
	}
	r := rng.New(41)
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64, 67, 129, 1001}
	for _, n := range lengths {
		for _, wd := range []float64{0, 1e-5, 0.1} {
			for _, t0 := range []int{0, 1, 2, 100000} {
				for _, special := range []bool{false, true} {
					ctx := fmt.Sprintf("n=%d wd=%v t0=%d special=%v", n, wd, t0, special)
					value := optimVec(r, n, 1, special)
					start := State{Kind: "adam", T: t0, M: make([]float32, n), V: make([]float32, n)}
					if t0 > 0 {
						for i := 0; i < n; i++ {
							start.M[i] = float32(r.NormFloat64() * 1e-3)
							if r.Intn(4) > 0 { // keep some v exactly 0 under a nonzero m
								start.V[i] = float32(r.Float64() * 1e-6)
							}
							if r.Intn(4) == 0 {
								start.M[i] = nearMinNormal[r.Intn(len(nearMinNormal))]
								start.V[i] = nearMinNormal[r.Intn(len(nearMinNormal))]
							}
						}
					}
					type side struct {
						a     *Adam
						value []float32
					}
					sides := [2]side{}
					for i := range sides {
						sides[i] = side{NewAdam(wd), append([]float32(nil), value...)}
						if t0 > 0 {
							if err := sides[i].a.Restore(start); err != nil {
								t.Fatal(err)
							}
						}
					}
					for step := 0; step < 3; step++ {
						grad := optimVec(r, n, 0.05, special)
						for i := range grad {
							if r.Intn(3) == 0 { // let the threshold moments decay untouched
								grad[i] = 0
							}
						}
						lr := float32(1e-3 * (1 + r.Float64()))
						for i, s := range sides {
							p := []model.Param{{Name: "p", Value: s.value, Grad: append([]float32(nil), grad...)}}
							withAdamAsm(i == 0, func() { s.a.Step(p, lr) })
						}
						asm, ref := sides[0], sides[1]
						for i := 0; i < n; i++ {
							if !same32(asm.value[i], ref.value[i]) {
								t.Fatalf("%s step %d: value[%d] (g=%v): asm %v (%#08x) != go %v (%#08x)", ctx, step, i, grad[i],
									asm.value[i], math.Float32bits(asm.value[i]), ref.value[i], math.Float32bits(ref.value[i]))
							}
							if !same32(asm.a.m[i], ref.a.m[i]) || !same32(asm.a.v[i], ref.a.v[i]) {
								t.Fatalf("%s step %d: moments[%d] (g=%v): asm m=%v v=%v != go m=%v v=%v", ctx, step, i, grad[i],
									asm.a.m[i], asm.a.v[i], ref.a.m[i], ref.a.v[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestAdamStepBounds: moment slabs shorter or longer than the gradients (a
// checkpoint from a different shape), or values shorter than their
// gradient, must panic in Go before the kernel gets raw pointers, and before
// the step count or any moment moves.
func TestAdamStepBounds(t *testing.T) {
	for _, asm := range []bool{true, false} {
		for _, c := range []struct {
			name        string
			moments     int
			value, grad int
		}{{"short moments", 6, 8, 8}, {"long moments", 10, 8, 8}, {"short value", 8, 7, 8}} {
			withAdamAsm(asm, func() {
				a := NewAdam(0)
				m := make([]float32, c.moments)
				m[0] = 1
				if err := a.Restore(State{Kind: "adam", T: 1, M: m, V: make([]float32, c.moments)}); err != nil {
					t.Fatal(err)
				}
				defer func() {
					if recover() == nil {
						t.Errorf("asm=%v %s: Step did not panic", asm, c.name)
					}
					if a.t != 1 || a.m[0] != 1 {
						t.Errorf("asm=%v %s: a refused Step moved the state: t=%d m[0]=%v", asm, c.name, a.t, a.m[0])
					}
				}()
				a.Step([]model.Param{{Name: "p", Value: make([]float32, c.value), Grad: make([]float32, c.grad)}}, 0.1)
			})
		}
	}
}

// TestAdamStepZeroAlloc: once the first call has created the moments, a step
// allocates nothing on either path, serial or striped over a pool: the
// second case's step is above tensor.ElementwiseMinWork.
func TestAdamStepZeroAlloc(t *testing.T) {
	pool := tensor.NewParallel(2)
	defer pool.Close()
	for _, asm := range []bool{true, false} {
		for _, n := range []int{1003, tensor.ElementwiseMinWork + 1003} {
			withAdamAsm(asm, func() {
				a := NewAdam(1e-5)
				a.SetBackend(pool)
				p := []model.Param{
					{Name: "w", Value: make([]float32, n), Grad: make([]float32, n)},
					{Name: "b", Value: make([]float32, 3), Grad: make([]float32, 3)},
				}
				a.Step(p, 0.01)
				if allocs := testing.AllocsPerRun(20, func() { a.Step(p, 0.01) }); allocs != 0 {
					t.Errorf("asm=%v n=%d: Adam.Step allocates %v times per call", asm, n, allocs)
				}
			})
		}
	}
}

// TestAdamStripedMatchesSerial: a step spread over a four-worker pool, each
// worker taking one stripe of every tensor, leaves the parameters and both
// moments bit for bit where the serial step leaves them, over two steps (the
// second reads the moments the first wrote) and on both kernels. The steps
// straddle tensor.ElementwiseMinWork and take 1 to 4 stripes, and no length
// is a multiple of 8, so every stripe bound cuts a tensor short of its tail.
func TestAdamStripedMatchesSerial(t *testing.T) {
	pool := tensor.NewParallel(4)
	defer pool.Close()
	r := rng.New(47)
	cut := tensor.ElementwiseMinWork
	for _, lens := range [][]int{{cut - 3}, {cut + 5}, {cut - 1003, 1001, 3, 13}, {3*cut/2 + 9}, {2*cut + 1, 7}} {
		for _, asm := range []bool{true, false} {
			ctx := fmt.Sprintf("lens=%v asm=%v", lens, asm)
			var params [2][]model.Param
			for _, n := range lens {
				value := optimVec(r, n, 1, true)
				for i := range params {
					params[i] = append(params[i], model.Param{Name: fmt.Sprint("p", n), Value: append([]float32(nil), value...), Grad: make([]float32, n)})
				}
			}
			serial, striped := NewAdam(1e-5), NewAdam(1e-5)
			striped.SetBackend(pool)
			for step := 0; step < 2; step++ {
				for j, n := range lens {
					grad := optimVec(r, n, 0.05, true)
					copy(params[0][j].Grad, grad)
					copy(params[1][j].Grad, grad)
				}
				withAdamAsm(asm, func() {
					serial.Step(params[0], 1e-3)
					striped.Step(params[1], 1e-3)
				})
				for j, p := range params[0] {
					q := params[1][j]
					for i := range p.Value {
						if !same32(p.Value[i], q.Value[i]) {
							t.Fatalf("%s step %d: %s[%d]: striped value %v, serial %v", ctx, step, p.Name, i, q.Value[i], p.Value[i])
						}
					}
				}
				for i := range serial.m {
					if !same32(serial.m[i], striped.m[i]) || !same32(serial.v[i], striped.v[i]) {
						t.Fatalf("%s step %d: moments[%d]: striped m/v %v/%v, serial %v/%v", ctx, step, i,
							striped.m[i], striped.v[i], serial.m[i], serial.v[i])
					}
				}
			}
		}
	}
}

// TestSGDMatchesSubtractLoop pins SGD.Step, now v += (−lr)·g on tensor.Axpy,
// to the loop it replaced, v −= lr·g, bit for bit — signed zeros, denormals,
// infinities and NaN included, at lengths that reach every block of the
// vector kernel and its scalar tail.
func TestSGDMatchesSubtractLoop(t *testing.T) {
	r := rng.New(43)
	lrs := []float32{0.2, 1e-3, 0, negZero32, 1e-40, float32(math.Inf(1))}
	for _, n := range []int{0, 1, 3, 4, 7, 8, 9, 31, 32, 33, 70, 513} {
		for _, lr := range lrs {
			value, grad := optimVec(r, n, 1, true), optimVec(r, n, 0.05, true)
			// Every special against every special, not only by chance.
			for _, v := range specials {
				for _, g := range specials {
					value, grad = append(value, v), append(grad, g)
				}
			}
			want := append([]float32(nil), value...)
			for i, g := range grad {
				want[i] -= lr * g
			}
			SGD{}.Step([]model.Param{{Name: "p", Value: value, Grad: grad}}, lr)
			for i := range want {
				if !same32(value[i], want[i]) {
					t.Fatalf("n=%d lr=%v element %d (g=%v): axpy %v (%#08x) != loop %v (%#08x)", n, lr, i, grad[i],
						value[i], math.Float32bits(value[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
}

// BenchmarkAdamStep times one step over a char-LM-sized dense parameter set
// on the AVX kernel (where the host has it) and on the portable loop.
func BenchmarkAdamStep(b *testing.B) {
	r := rng.New(5)
	p := []model.Param{{Name: "w", Value: optimVec(r, 1<<16, 1, false), Grad: optimVec(r, 1<<16, 0.05, false)}}
	for _, asm := range []bool{true, false} {
		name := "go"
		if asm {
			name = "asm"
		}
		b.Run(name, func(b *testing.B) {
			withAdamAsm(asm, func() {
				a := NewAdam(1e-5)
				a.Step(p, 1e-3)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.Step(p, 1e-3)
				}
			})
		})
	}
}
