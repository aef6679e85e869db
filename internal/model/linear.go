package model

import (
	"math"

	"zipflm/internal/rng"
	"zipflm/internal/tensor"
)

// Linear is a fully connected layer y = x Wᵀ + b. The paper's word model
// uses one as the 2048→512 projection between the LSTM and the output
// embedding (§IV-B: "the projection dimension we used is 512").
type Linear struct {
	In, Out int
	// W is Out×In (one row per output unit); B is the bias.
	W *tensor.Matrix
	B []float32
	// qw is the int8 shadow of W (see quantize.go); non-nil routes
	// ForwardInto through the quantized kernels.
	qw *tensor.QMatrix

	gw *tensor.Matrix
	gb []float32
	declared

	be tensor.Backend

	// forward cache
	x *tensor.Matrix
}

// newLinear returns a Linear layer whose weights and gradients c carves,
// with a cache of its own. A non-nil r draws Xavier-uniform weights.
func newLinear(in, out int, r *rng.RNG, c *carver) *Linear {
	l := &Linear{In: in, Out: out, be: tensor.Serial{}}
	first := len(c.params)
	l.W, l.gw = c.take("linear.W", out, in)
	b, gb := c.take("linear.b", 1, out)
	l.B, l.gb, l.declared = b.Data, gb.Data, c.since(first)
	if r != nil {
		l.W.RandomizeUniform(r, math.Sqrt(6/float64(in+out)))
	}
	return l
}

func (l *Linear) setBackend(be tensor.Backend) { l.be = be }

// forward computes y = x Wᵀ + b for a B×In input, caching x for backward.
// y is carved from ws.
func (l *Linear) forward(ws *workspace, x *tensor.Matrix) *tensor.Matrix {
	y := ws.take(x.Rows, l.Out)
	l.be.MatMulABT(y, x, l.W)
	for r := 0; r < y.Rows; r++ {
		tensor.AddInPlace(y.Row(r), l.B)
	}
	l.x = x
	return y
}

// ForwardInto computes y = x Wᵀ + b into a caller-owned matrix without
// caching x — the inference path, which must neither allocate nor disturb a
// training step's backward state. On an FP32 layer values are bit-identical
// to forward's; a quantized layer runs the int8 kernels instead.
func (l *Linear) ForwardInto(y, x *tensor.Matrix) {
	qmul(l.be, y, x, l.W, l.qw)
	for r := 0; r < y.Rows; r++ {
		tensor.AddInPlace(y.Row(r), l.B)
	}
}

// backward consumes dLoss/dy, accumulates parameter gradients, and returns
// dLoss/dx, carved from ws.
func (l *Linear) backward(ws *workspace, dy *tensor.Matrix) *tensor.Matrix {
	if l.x == nil {
		panic("model: Linear.backward before forward")
	}
	// gW += dyᵀ @ x ; gb += column sums of dy ; dx = dy @ W.
	l.be.MatMulATBAcc(l.gw, dy, l.x)
	for r := 0; r < dy.Rows; r++ {
		tensor.AddInPlace(l.gb, dy.Row(r))
	}
	dx := ws.take(dy.Rows, l.In)
	l.be.MatMul(dx, dy, l.W)
	l.x = nil
	return dx
}
