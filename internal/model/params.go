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

import "zipflm/internal/tensor"

// Param is one named dense parameter tensor with its gradient accumulator.
// Value and Grad always have equal length; optimizers walk these pairs.
type Param struct {
	Name  string
	Value []float32
	Grad  []float32
}

// Layer is anything that owns dense parameters.
type Layer interface {
	// Params returns the tensors the layer declared, in declaration order:
	// consecutive views of its model's value and gradient slabs (see
	// carver). Gradients accumulate into them across backward passes until
	// LM.ZeroGrads. The list is built once, at construction, and shared by
	// every call (the trainer asks several times per step): read it, do not
	// modify it. Its capacity is its length, so appending to it copies.
	Params() []Param
}

// carver cuts a model's dense tensors, in declaration order, out of one
// value slab and one gradient slab, after the flat gradient buckets of
// PyTorch DDP (Li et al., PVLDB 2020). Every dense tensor is declared by one
// take, so the layout is decided here alone: a Replica passes its source's
// value slab and a gradient slab of its own, and ZeroGrads clears one slice.
type carver struct {
	values, grads []float32
	params        []Param
}

// take declares the next rows×cols tensor and returns its weight and
// gradient views.
func (c *carver) take(name string, rows, cols int) (w, g *tensor.Matrix) {
	n := rows * cols
	p := Param{Name: name, Value: c.values[:n:n], Grad: c.grads[:n:n]}
	c.values, c.grads = c.values[n:], c.grads[n:]
	c.params = append(c.params, p)
	return &tensor.Matrix{Rows: rows, Cols: cols, Data: p.Value}, &tensor.Matrix{Rows: rows, Cols: cols, Data: p.Grad}
}

// since returns the declarations made after the first n, a list whose
// capacity is its length.
func (c *carver) since(n int) declared { return c.params[n:len(c.params):len(c.params)] }

// declared is a layer's Params: the tensors it took, in order.
type declared []Param

// Params implements Layer.
func (d declared) Params() []Param { return d }

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
