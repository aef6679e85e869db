// Package model implements the RNN language models of §IV-B in pure Go:
// input/output embeddings, an LSTM layer (word LM) and a recurrent highway
// network layer (char LM, after Hestness et al.), a linear projection, and
// full plus sampled softmax losses, all with exact analytic backward passes
// (verified against numerical gradients in the tests).
//
// The layers follow a single convention: forward caches whatever backward
// needs, so exactly one forward may be outstanding per layer at a time —
// the pattern a data-parallel trainer uses, where each rank's replica shares
// rank 0's weights (LM.Replica) and owns its gradients, caches and
// workspace.
//
// Only the recurrence is sequential. Training runs a whole T×B sequence per
// call on time-major (T·B)×N slabs carved from a per-replica workspace that
// is sized by the first step and reused by every later one (workspace.go):
//
//   - once per sequence: the embedding gather, the input products x·Wxᵀ
//     (RHN: x·Whᵀ, x·Wtᵀ), the projection, the softmax, and in backward every
//     weight-gradient product (gWx, gWh; RHN: gWh, gWt and each micro-layer's
//     gRh, gRt), the bias column sums and dx = dz·Wx;
//   - once per timestep: what reads the previous step's result — h·Whᵀ
//     (RHN: s·Rhᵀ, s·Rtᵀ per micro-layer), the gates, and in backward the
//     gate gradients and dh_prev = dz·Wh (RHN: ds through Rh, Rt).
//
// Hoisting a product out of the time loop moves no bit. A row of x·Wᵀ or
// dz·W depends on that row's operands alone, so computing the rows together
// changes nothing. A weight gradient is a sum over rows, and float addition
// does not reassociate, so the rows must be added in the order the
// per-timestep loop added them: backward walks the steps last to first, and
// the layers keep their slabs in that block order (steps descending, batch
// rows ascending within a step) so that one MatMulATBAcc over a slab performs
// the loop's adds in the loop's order. What crosses a layer boundary —
// inputs, outputs, their gradients, StepResult.InputGrad — keeps steps
// ascending, the order the projection's gradient, the loss sum and the
// embedding exchange's local reduce accumulate in. oracle_test.go keeps the
// per-timestep passes as the definition and holds this path to them bit for
// bit.
//
// Inference (infer.go) is the same principle per request: prefill advances
// cells only, and a V×D logits row is computed for a token that is sampled
// from it and for no other.
package model

// Param is one named dense parameter tensor with its gradient accumulator.
// Value and Grad always have equal length; optimizers walk these pairs.
type Param struct {
	Name  string
	Value []float32
	Grad  []float32
}

// Layer is anything that owns dense parameters.
type Layer interface {
	// Params returns the layer's parameters; gradients accumulate into
	// the returned Grad slices across backward passes until LM.ZeroGrads. The
	// list is built once, at construction, and shared by every call (the
	// trainer asks several times per step): read it, do not modify it. Its
	// capacity is its length, so appending to it copies.
	Params() []Param
}

// zeroAll clears each gradient slice.
func zeroAll(ps []Param) {
	for _, p := range ps {
		for i := range p.Grad {
			p.Grad[i] = 0
		}
	}
}

// NumParams sums parameter counts over layers (the "213 million parameters"
// style accounting of §IV-B).
func NumParams(layers ...Layer) int {
	n := 0
	for _, l := range layers {
		for _, p := range l.Params() {
			n += len(p.Value)
		}
	}
	return n
}
