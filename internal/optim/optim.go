// Package optim provides the optimizers of §IV-B: plain SGD (word LM) and
// Adam with weight decay (char LM), plus the paper's learning-rate scaling
// rule — base rate multiplied by ln(#nodes) as GPUs grow — and epoch decay.
//
// Embedding matrices are updated with SGD-style row updates applied from
// the globally exchanged core.Update (sparse rows); dense RNN/projection
// parameters go through the Optimizer interface below.
//
// There is no loss scaler here: the trainer never scales a loss. §III-C's
// compression-scaling is applied where the precision is lost, on the wire
// (half.Scaler).
//
// Optimizer state lives at the parameters' precision: Adam's moments are
// float32 like the weights and gradients beside them (8 bytes of state per
// dense parameter, not 16), and its arithmetic is this package's own
// definition — adamGo, with an AVX twin held to it bit for bit and the
// float64 loop it replaced kept in oracle_test.go to measure it against.
package optim

import (
	"fmt"
	"math"
	"slices"

	"zipflm/internal/model"
	"zipflm/internal/tensor"
)

// Optimizer updates dense parameters from their accumulated gradients, and
// carries its internal state through a checkpoint/resume cycle.
type Optimizer interface {
	// Step applies one update at the given learning rate and clears
	// nothing — callers zero gradients between steps.
	Step(params []model.Param, lr float32)
	// Snapshot deep-copies the optimizer's state, so later Steps cannot
	// mutate a captured state.
	Snapshot() State
	// Restore deep-copies a snapshot back, so one State can be restored
	// again after later Steps (a trainer recovering from a fault restores
	// its last checkpoint). It refuses another optimizer's state.
	Restore(State) error
}

// State is a serializable optimizer snapshot for the checkpoint subsystem.
// Kind guards a resume against swapping optimizers between the
// checkpointing run and the resuming one.
type State struct {
	// Kind identifies the optimizer ("sgd", "adam").
	Kind string
	// T is Adam's global step count (bias correction position).
	T int
	// M and V are Adam's first and second moments at the parameters'
	// precision, one slab each, aligned with the concatenation of the
	// parameters Step walks (for a model, its dense value slab); empty
	// before the first step.
	M, V []float32
}

// Snapshot implements Optimizer: SGD is stateless.
func (SGD) Snapshot() State { return State{Kind: "sgd"} }

// Restore implements Optimizer.
func (SGD) Restore(s State) error {
	if s.Kind != "sgd" {
		return fmt.Errorf("optim: resuming SGD from a %q checkpoint", s.Kind)
	}
	return nil
}

// Snapshot implements Optimizer: the step counter plus both moment slabs,
// deep-copied.
func (a *Adam) Snapshot() State {
	return State{Kind: "adam", T: a.t, M: slices.Clone(a.m), V: slices.Clone(a.v)}
}

// Restore implements Optimizer.
func (a *Adam) Restore(s State) error {
	if s.Kind != "adam" {
		return fmt.Errorf("optim: resuming Adam from a %q checkpoint", s.Kind)
	}
	if len(s.M) != len(s.V) {
		return fmt.Errorf("optim: Adam state has %d first and %d second moments", len(s.M), len(s.V))
	}
	a.t, a.m, a.v = s.T, slices.Clone(s.M), slices.Clone(s.V)
	return nil
}

// SGD is stochastic gradient descent, the word-LM optimizer (§IV-B: "we
// used stochastic gradient descent (SGD) for optimizing per-sequence word
// cross-entropy loss").
type SGD struct{}

// Step implements Optimizer.
func (SGD) Step(params []model.Param, lr float32) {
	for _, p := range params {
		// v − lr·g as v + (−lr)·g: the same IEEE result, on the AXPY kernel.
		tensor.Axpy(-lr, p.Value, p.Grad)
	}
}

// Adam implements Adam with decoupled weight decay (AdamW-style), the
// char-LM optimizer (§IV-B: "we use Adam with weight decay and dropout").
//
// The moments are float32, the precision of the weights and gradients they
// sit beside, and adamGo below is the definition of a step: every operation
// rounded to float32 on its own, the two bias corrections applied as
// reciprocals computed once per step, one square root and one divide per
// element. A moment that decays below the smallest normal float32 is stored
// as +0: without that rule a parameter whose gradient stays exactly zero (a
// dead unit) decays m into the denormal range, where 0.9 × the smallest
// denormal rounds back to itself — m never reaches zero and every later step
// pays the denormal penalty on it.
type Adam struct {
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64

	// t is the step count; m and v are the moment slabs, sized by the first
	// Step to the total length of its parameters.
	t    int
	m, v []float32

	// be, when non-nil, runs a step's stripes on its workers; runStripe is
	// stripe, bound once so a step allocates nothing, and cur the step's
	// arguments every stripe reads.
	be        tensor.Backend
	runStripe func(i int)
	cur       adamStep
}

// adamStep is one Step's work: the parameters, the step's constants, and
// how many stripes each tensor is cut into.
type adamStep struct {
	params  []model.Param
	k       adamConsts
	lr      float32
	stripes int
}

// NewAdam returns an Adam optimizer with the standard moment coefficients.
func NewAdam(weightDecay float64) *Adam {
	return &Adam{
		Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		WeightDecay: weightDecay,
	}
}

// adamConsts are one step's loop invariants, in the order adamAVX loads them.
type adamConsts struct {
	beta1, omb1, beta2, omb2 float32 // omb = one minus beta
	r1, r2                   float32 // reciprocal bias corrections 1/(1-beta^t)
	eps, wd                  float32
}

// minNormal is 2⁻¹²⁶, the smallest normal float32: the flush threshold.
const minNormal = 0x1p-126

// SetBackend spreads every later Step over be's workers: with w of them
// (tensor.Fanout of the step's element count), worker i updates stripe i of
// every tensor (tensor.Stripe), in one Backend.For per step. The arithmetic
// is elementwise, so the bits do not depend on it; a step below
// tensor.ElementwiseMinWork elements, or without a backend, runs on the
// caller.
func (a *Adam) SetBackend(be tensor.Backend) { a.be, a.runStripe = be, a.stripe }

// Step implements Optimizer. The moments of params[i] are the stretch of
// the moment slabs after those of params[:i]; a call whose parameters do
// not add up to the slabs' length panics, before anything is written.
func (a *Adam) Step(params []model.Param, lr float32) {
	n := 0
	for _, p := range params {
		if len(p.Value) < len(p.Grad) {
			panic(fmt.Sprintf("optim: Adam step over %s: %d gradients for %d values", p.Name, len(p.Grad), len(p.Value)))
		}
		n += len(p.Grad)
	}
	if a.m == nil && a.v == nil {
		a.m, a.v = make([]float32, n), make([]float32, n)
	}
	if len(a.m) != n || len(a.v) != n {
		panic(fmt.Sprintf("optim: Adam step over %d gradients with %d/%d moments", n, len(a.m), len(a.v)))
	}
	a.t++
	s := &a.cur
	s.k = adamConsts{
		float32(a.Beta1), float32(1 - a.Beta1), float32(a.Beta2), float32(1 - a.Beta2),
		float32(1 / (1 - math.Pow(a.Beta1, float64(a.t)))), float32(1 / (1 - math.Pow(a.Beta2, float64(a.t)))),
		float32(a.Eps), float32(a.WeightDecay),
	}
	s.params, s.lr = params, lr
	s.stripes = tensor.Fanout(a.be, n)
	if s.stripes > 1 {
		a.be.For(s.stripes, a.runStripe)
	} else {
		a.stripe(0)
	}
	s.params = nil
}

// stripe updates stripe i of every tensor of the current step.
func (a *Adam) stripe(i int) {
	s := &a.cur
	off := 0
	for _, p := range s.params {
		lo, hi := tensor.Stripe(len(p.Grad), s.stripes, i)
		adamRange(p.Value[lo:hi], p.Grad[lo:hi], a.m[off+lo:off+hi], a.v[off+lo:off+hi], &s.k, s.lr)
		off += len(p.Grad)
	}
}

// adamRange steps one range: the AVX kernel over its multiple of 8, adamGo
// over the rest. The slices are as long as grad.
func adamRange(value, grad, m, v []float32, k *adamConsts, lr float32) {
	n := 0
	if useAdamAsm && len(grad) >= 8 {
		n = len(grad) &^ 7
		adamAVX(&value[0], &grad[0], &m[0], &v[0], n, k, lr)
	}
	adamGo(value[n:], grad[n:], m[n:], v[n:], k, lr)
}

// adamGo is the portable Adam kernel and the definition the AVX kernel is
// held to; it also finishes the last len(grad)%8 elements after it. Each
// product is converted explicitly, so no compiler may fuse it into the add
// that follows, and float32(math.Sqrt(float64(x))) is the correctly rounded
// float32 square root.
func adamGo(value, grad, m, v []float32, k *adamConsts, lr float32) {
	for i, g := range grad {
		mi := flush(float32(k.beta1*m[i]) + float32(k.omb1*g))
		vi := flush(float32(k.beta2*v[i]) + float32(float32(k.omb2*g)*g))
		m[i], v[i] = mi, vi
		den := float32(math.Sqrt(float64(float32(vi*k.r2)))) + k.eps
		upd := float32(float32(mi*k.r1)/den) + float32(k.wd*value[i])
		value[i] -= float32(lr * upd)
	}
}

// flush returns +0 for a magnitude below the smallest normal float32 and x
// otherwise (NaN included). The test is on the bits so that it is one branch
// that almost never goes the other way; comparing x with ±2⁻¹²⁶ would branch
// on the sign of every moment.
func flush(x float32) float32 {
	if math.Float32bits(x)&0x7fffffff < math.Float32bits(minNormal) {
		return 0
	}
	return x
}

// Schedule is the paper's learning-rate policy: a base rate for the 8-GPU
// (one node) configuration, multiplied by ln(#nodes) when scaling out
// (§V-A: "we use 0.2 as the base learning rate … and then used a
// multiplying factor of log_e |nodes|"), decayed per epoch by a factor in
// [0.85, 0.95].
type Schedule struct {
	// Base is the single-node learning rate (0.2 word LM, 1e-3 char LM).
	Base float64
	// GPUsPerNode converts rank counts to node counts (paper: 8).
	GPUsPerNode int
	// Decay is the per-epoch multiplicative decay (paper: 0.85–0.95).
	Decay float64
}

// LR returns the learning rate for the given cluster size and 0-based epoch.
func (s Schedule) LR(gpus int, epoch int) float64 {
	nodes := float64(gpus) / float64(s.GPUsPerNode)
	scale := 1.0
	if nodes > 1 {
		scale = math.Log(nodes)
		if scale < 1 {
			scale = 1
		}
	}
	lr := s.Base * scale
	for e := 0; e < epoch; e++ {
		lr *= s.Decay
	}
	return lr
}
