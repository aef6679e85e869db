package optim

import (
	"fmt"
	"math"
	"testing"

	"zipflm/internal/model"
	"zipflm/internal/rng"
)

// adam64 is the float64 Adam this package ran until the moments moved to the
// parameters' precision — its Step and loop verbatim, kept as the oracle the
// float32 definition is measured against.
type adam64 struct {
	beta1, beta2, eps, wd float64
	t                     int
	m, v                  []float64
}

func (a *adam64) step(value, grad []float32, lr float32) {
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	m, v := a.m, a.v
	for i, g32 := range grad {
		g := float64(g32)
		m[i] = a.beta1*m[i] + (1-a.beta1)*g
		v[i] = a.beta2*v[i] + (1-a.beta2)*g*g
		mHat := m[i] / bc1
		vHat := v[i] / bc2
		upd := mHat/(math.Sqrt(vHat)+a.eps) + a.wd*float64(value[i])
		value[i] -= lr * float32(upd)
	}
}

// TestAdamTracksFloat64Oracle runs the float32 kernel and the float64 oracle
// for 2 000 steps on one gradient stream — per-coordinate scales from 1e-6 to
// 1, one gradient in ten exactly zero — and bounds how far the parameters
// drift apart, relative to the distance they travelled. Measured maxima on
// this stream: 1.5e-5 (asm and portable agree bit for bit, so both read the
// same); the bound leaves a factor of ≈ 3.
func TestAdamTracksFloat64Oracle(t *testing.T) {
	const n, steps, bound = 1001, 2000, 5e-5
	for _, asm := range []bool{true, false} {
		withAdamAsm(asm, func() {
			r := rng.New(97)
			scale := make([]float64, n)
			for i := range scale {
				scale[i] = math.Pow(10, -6*r.Float64())
			}
			start := optimVec(r, n, 1, false)
			got, want := append([]float32(nil), start...), append([]float32(nil), start...)
			a := NewAdam(1e-5)
			ref := &adam64{beta1: 0.9, beta2: 0.999, eps: 1e-8, wd: 1e-5, m: make([]float64, n), v: make([]float64, n)}
			grad := make([]float32, n)
			p := []model.Param{{Name: "p", Value: got, Grad: grad}}
			for s := 0; s < steps; s++ {
				for i := range grad {
					grad[i] = float32(r.NormFloat64() * scale[i])
					if r.Intn(10) == 0 {
						grad[i] = 0
					}
				}
				a.Step(p, 1e-3)
				ref.step(want, grad, 1e-3)
			}
			worst := 0.0
			for i := range got {
				travelled := math.Abs(float64(want[i])-float64(start[i])) + math.Abs(float64(start[i]))
				worst = math.Max(worst, math.Abs(float64(got[i])-float64(want[i]))/travelled)
			}
			t.Logf("asm=%v: max relative distance from the float64 oracle after %d steps: %.3g", asm, steps, worst)
			if !(worst <= bound) {
				t.Errorf("asm=%v: parameters drift %.3g from the float64 oracle, bound %.3g", asm, worst, bound)
			}
		})
	}
}

// TestAdamZeroGradientNeverDenormal pins the flush rule by value. One warm
// step, then gradients that are exactly zero: under the rule-less arithmetic
// m decays into the denormals and sticks at the smallest one for the rest of
// the run (0.9 × 1 ulp rounds back to 1 ulp), and every later step pays for
// it. With the rule every stored moment is at all times exactly 0 or a normal
// float32, m reaches +0 (by step ≈ 750) and from then on the parameter moves
// by weight decay alone. v decays by 0.999 a step and would need ≈ 67 000
// steps to get there, so the run that pins its arrival at +0 sets Beta2 to
// 0.9. The last pattern gives each coordinate a non-zero gradient once in
// 300 steps.
func TestAdamZeroGradientNeverDenormal(t *testing.T) {
	const n, steps = 1001, 2000
	normalOrZero := func(x float32) bool {
		return x == 0 && !math.Signbit(float64(x)) || math.Abs(float64(x)) >= minNormal
	}
	for _, asm := range []bool{true, false} {
		for _, c := range []struct {
			period int
			beta2  float64
		}{{0, 0.999}, {0, 0.9}, {300, 0.999}} {
			period := c.period
			for _, wd := range []float64{0, 1e-5} {
				ctx := fmt.Sprintf("asm=%v period=%d beta2=%v wd=%v", asm, period, c.beta2, wd)
				withAdamAsm(asm, func() {
					a := NewAdam(wd)
					a.Beta2 = c.beta2
					value, grad, before := make([]float32, n), make([]float32, n), make([]float32, n)
					for i := range value {
						value[i] = 0.5
					}
					p := []model.Param{{Name: "p", Value: value, Grad: grad}}
					const lr = 1e-3
					for s := 0; s <= steps; s++ {
						for i := range grad {
							grad[i] = 0
							if s == 0 || period > 0 && (s+i)%period == 0 {
								grad[i] = 1e-3
							}
						}
						copy(before, value)
						a.Step(p, lr)
						for i := range value {
							m, v := a.m[i], a.v[i]
							if !normalOrZero(m) || !normalOrZero(v) {
								t.Fatalf("%s step %d: stored moments[%d] m=%g v=%g: neither +0 nor normal", ctx, s, i, m, v)
							}
							// Once m is +0 the update is weight decay alone.
							if want := before[i] - float32(lr*float32(float32(wd)*before[i])); m == 0 && value[i] != want {
								t.Fatalf("%s step %d: value[%d] moved %v -> %v with m = 0, want %v", ctx, s, i, before[i], value[i], want)
							}
						}
					}
					for i := range value {
						if m, v := a.m[i], a.v[i]; period == 0 && (m != 0 || c.beta2 == 0.9 && v != 0) {
							t.Fatalf("%s: after %d zero-gradient steps moments[%d] m=%g v=%g, want +0", ctx, steps, i, m, v)
						}
					}
				})
			}
		}
	}
}
