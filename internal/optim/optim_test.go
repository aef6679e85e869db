package optim

import (
	"math"
	"testing"

	"zipflm/internal/model"
)

func makeParam(vals, grads []float32) model.Param {
	return model.Param{Name: "p", Value: vals, Grad: grads}
}

func TestSGDStep(t *testing.T) {
	p := makeParam([]float32{1, 2}, []float32{0.5, -1})
	SGD{}.Step([]model.Param{p}, 0.1)
	if math.Abs(float64(p.Value[0])-0.95) > 1e-6 || math.Abs(float64(p.Value[1])-2.1) > 1e-6 {
		t.Errorf("SGD result %v", p.Value)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(x) = (x-3)², starting at 0.
	x := []float32{0}
	g := []float32{0}
	p := makeParam(x, g)
	a := NewAdam(0)
	for i := 0; i < 2000; i++ {
		g[0] = 2 * (x[0] - 3)
		a.Step([]model.Param{p}, 0.01)
	}
	if math.Abs(float64(x[0])-3) > 0.05 {
		t.Errorf("Adam converged to %v, want 3", x[0])
	}
}

func TestAdamStateIsPerParameter(t *testing.T) {
	a := NewAdam(0)
	p1 := makeParam([]float32{0}, []float32{1})
	p2 := model.Param{Name: "q", Value: []float32{0}, Grad: []float32{-1}}
	a.Step([]model.Param{p1, p2}, 0.1)
	// Opposite gradients must move in opposite directions.
	if !(p1.Value[0] < 0 && p2.Value[0] > 0) {
		t.Errorf("values %v %v", p1.Value[0], p2.Value[0])
	}
}

func TestAdamWeightDecayShrinksWeights(t *testing.T) {
	noDecay := makeParam([]float32{1}, []float32{0})
	withDecay := model.Param{Name: "w", Value: []float32{1}, Grad: []float32{0}}
	NewAdam(0).Step([]model.Param{noDecay}, 0.1)
	NewAdam(0.1).Step([]model.Param{withDecay}, 0.1)
	if noDecay.Value[0] != 1 {
		t.Errorf("zero-gradient zero-decay step changed weight to %v", noDecay.Value[0])
	}
	if withDecay.Value[0] >= 1 {
		t.Errorf("weight decay did not shrink weight: %v", withDecay.Value[0])
	}
}

func TestScheduleMatchesPaper(t *testing.T) {
	// §V-A: base 0.2 at 8 GPUs; "e.g. 0.41 for 64 GPUs" — 0.2·ln(8) ≈ 0.416.
	s := Schedule{Base: 0.2, GPUsPerNode: 8, Decay: 0.9}
	if got := s.LR(8, 0); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("LR(8) = %v, want 0.2", got)
	}
	if got := s.LR(64, 0); math.Abs(got-0.2*math.Log(8)) > 1e-9 {
		t.Errorf("LR(64) = %v, want %v (paper: ≈0.41)", got, 0.2*math.Log(8))
	}
	// §V-B: char base 1e-3, "2.07×10⁻³ for 64 GPUs" — 1e-3·ln(8) ≈ 2.08e-3.
	c := Schedule{Base: 1e-3, GPUsPerNode: 8, Decay: 0.9}
	if got := c.LR(64, 0); math.Abs(got-2.0794e-3) > 1e-5 {
		t.Errorf("char LR(64) = %v, want ≈2.08e-3", got)
	}
}

func TestScheduleDecay(t *testing.T) {
	s := Schedule{Base: 0.2, GPUsPerNode: 8, Decay: 0.9}
	lr0 := s.LR(8, 0)
	lr2 := s.LR(8, 2)
	if math.Abs(lr2-lr0*0.81) > 1e-9 {
		t.Errorf("decayed LR = %v, want %v", lr2, lr0*0.81)
	}
}

func TestScheduleNeverScalesDown(t *testing.T) {
	s := Schedule{Base: 0.2, GPUsPerNode: 8, Decay: 0.9}
	// Fewer GPUs than one node must not shrink the base rate.
	if got := s.LR(4, 0); got < 0.2 {
		t.Errorf("LR(4) = %v shrank below base", got)
	}
}
