package model

import (
	"math"

	"zipflm/internal/rng"
	"zipflm/internal/tensor"
)

// LSTM is a single-layer long short-term memory RNN processing a whole
// sequence with full backpropagation through time. It is the recurrent core
// of the paper's word language model (§IV-B: "one LSTM layer with 2048
// cells").
//
// Gate layout inside the fused 4H dimension: input, forget, cell (g),
// output.
type LSTM struct {
	In, Hidden int
	// Wx is 4H×In, Wh is 4H×H, B is 4H (forget-gate slice initialized
	// to 1, the standard trick for gradient flow early in training).
	Wx, Wh *tensor.Matrix
	B      []float32

	// qwx, qwh are the int8 shadows of Wx/Wh (see quantize.go); non-nil
	// routes stepInfer through the quantized kernels.
	qwx, qwh *tensor.QMatrix

	gwx, gwh *tensor.Matrix
	gb       []float32

	be tensor.Backend

	// forward caches, one entry per timestep
	xs, hs, cs []*tensor.Matrix // inputs, hidden states, cell states
	zs, tcs    []*tensor.Matrix // post-activation gates [i|f|g|o] (B×4H), tanh(c)
	h0, c0     *tensor.Matrix

	// stateful training (see state.go)
	carry   bool
	carried *carriedState
}

// NewLSTM returns an LSTM with Xavier-uniform weights and forget bias 1.
func NewLSTM(in, hidden int, r *rng.RNG) *LSTM {
	l := &LSTM{
		In: in, Hidden: hidden,
		Wx:  tensor.NewMatrix(4*hidden, in),
		Wh:  tensor.NewMatrix(4*hidden, hidden),
		B:   make([]float32, 4*hidden),
		gwx: tensor.NewMatrix(4*hidden, in),
		gwh: tensor.NewMatrix(4*hidden, hidden),
		gb:  make([]float32, 4*hidden),
		be:  tensor.Serial{},
	}
	l.Wx.RandomizeUniform(r, math.Sqrt(6/float64(in+4*hidden)))
	l.Wh.RandomizeUniform(r, math.Sqrt(6/float64(hidden+4*hidden)))
	for i := hidden; i < 2*hidden; i++ {
		l.B[i] = 1 // forget gate bias
	}
	return l
}

func (l *LSTM) setBackend(be tensor.Backend) { l.be = be }

// gates is the cell: one row's pre-activations to its gates and new state, in
// vector passes over the contiguous [i|f|g|o] row. z holds x·Wxᵀ and becomes
// the post-activation gates (what Backward reads): z += zh + b, σ over [i|f],
// tanh over g, σ over o; then c = f⊙cPrev + i⊙g (each product rounded, no
// FMA), tc = tanh(c), h = o⊙tc. Forward and stepInfer both step through
// here, so training and serving compute the same bits; c may be cPrev.
func (l *LSTM) gates(z, zh, cPrev, c, tc, h []float32) {
	hd := l.Hidden
	tensor.AddInPlace(z, zh)
	tensor.AddInPlace(z, l.B)
	tensor.Sigmoid(z[:2*hd], z[:2*hd])
	tensor.Tanh(z[2*hd:3*hd], z[2*hd:3*hd])
	tensor.Sigmoid(z[3*hd:], z[3*hd:])
	i, f, g, o := z[:hd], z[hd:2*hd], z[2*hd:3*hd], z[3*hd:]
	for j := range c {
		c[j] = float32(f[j]*cPrev[j]) + float32(i[j]*g[j])
	}
	tensor.Tanh(tc, c)
	for j := range h {
		h[j] = o[j] * tc[j]
	}
}

// Forward runs the layer over xs (T matrices of B×In), starting from zero
// initial state, and returns the T hidden states (B×H each).
func (l *LSTM) Forward(xs []*tensor.Matrix) []*tensor.Matrix {
	t := len(xs)
	if t == 0 {
		return nil
	}
	batch := xs[0].Rows
	h := l.Hidden

	l.xs = xs
	l.hs = make([]*tensor.Matrix, t)
	l.cs = make([]*tensor.Matrix, t)
	l.zs = make([]*tensor.Matrix, t)
	l.tcs = make([]*tensor.Matrix, t)
	l.h0, l.c0 = initialState(l.carry, l.carried, batch, h, true)

	hPrev, cPrev := l.h0, l.c0
	zh := tensor.NewMatrix(batch, 4*h)
	for step := 0; step < t; step++ {
		// z = x Wxᵀ + h_prev Whᵀ + b
		z := tensor.NewMatrix(batch, 4*h)
		l.be.MatMulABT(z, xs[step], l.Wx)
		l.be.MatMulABT(zh, hPrev, l.Wh)
		ht := tensor.NewMatrix(batch, h)
		ct := tensor.NewMatrix(batch, h)
		tc := tensor.NewMatrix(batch, h)
		for b := 0; b < batch; b++ {
			l.gates(z.Row(b), zh.Row(b), cPrev.Row(b), ct.Row(b), tc.Row(b), ht.Row(b))
		}
		l.zs[step], l.tcs[step] = z, tc
		l.hs[step], l.cs[step] = ht, ct
		hPrev, cPrev = ht, ct
	}
	if l.carry {
		// Detach the final state for the next batch (truncated BPTT).
		l.carried = &carriedState{H: hPrev.Clone(), C: cPrev.Clone()}
	}
	return l.hs
}

// Backward consumes dLoss/dh per timestep and returns dLoss/dx per
// timestep, accumulating weight gradients.
func (l *LSTM) Backward(dhs []*tensor.Matrix) []*tensor.Matrix {
	t := len(dhs)
	if t != len(l.hs) {
		panic("model: LSTM.Backward length mismatch with Forward")
	}
	if t == 0 {
		return nil
	}
	batch := dhs[0].Rows
	h := l.Hidden

	dxs := make([]*tensor.Matrix, t)
	dhNext := tensor.NewMatrix(batch, h) // gradient flowing from step+1's h
	dcNext := tensor.NewMatrix(batch, h)
	dz := tensor.NewMatrix(batch, 4*h)

	for step := t - 1; step >= 0; step-- {
		cPrev := l.c0
		hPrev := l.h0
		if step > 0 {
			cPrev = l.cs[step-1]
			hPrev = l.hs[step-1]
		}
		for b := 0; b < batch; b++ {
			dhr := dhs[step].Row(b)
			dhn := dhNext.Row(b)
			dcn := dcNext.Row(b)
			dzr := dz.Row(b)
			zr, tcr, cpr := l.zs[step].Row(b), l.tcs[step].Row(b), cPrev.Row(b)
			for j := 0; j < h; j++ {
				dh := float64(dhr[j] + dhn[j])
				tc := float64(tcr[j])
				i := float64(zr[j])
				f := float64(zr[h+j])
				g := float64(zr[2*h+j])
				o := float64(zr[3*h+j])

				do := dh * tc
				dc := float64(dcn[j]) + dh*o*(1-tc*tc)
				di := dc * g
				dg := dc * i
				df := dc * float64(cpr[j])

				dzr[j] = float32(di * i * (1 - i))
				dzr[h+j] = float32(df * f * (1 - f))
				dzr[2*h+j] = float32(dg * (1 - g*g))
				dzr[3*h+j] = float32(do * o * (1 - o))

				dcn[j] = float32(dc * f)
			}
		}

		// Parameter gradients: gWx += dzᵀ x_t ; gWh += dzᵀ h_{t-1} ;
		// gb += colsum dz.
		l.be.MatMulATBAcc(l.gwx, dz, l.xs[step])
		l.be.MatMulATBAcc(l.gwh, dz, hPrev)
		for b := 0; b < batch; b++ {
			tensor.AddInPlace(l.gb, dz.Row(b))
		}

		// Input and recurrent gradients.
		dx := tensor.NewMatrix(batch, l.In)
		l.be.MatMul(dx, dz, l.Wx)
		dxs[step] = dx
		l.be.MatMul(dhNext, dz, l.Wh)
	}
	return dxs
}

// stepInfer advances one inference timestep in place: x is the B×In input,
// h and c the B×H recurrent state (updated to the new state), zx and zh B×4H
// scratch. No backward caches are written and nothing is allocated, so the
// serving hot loop can call it per token at zero cost beyond the math. Every
// row goes through gates exactly as in Forward and depends only on that
// row's input and state, so a batched step is bit-identical to B independent
// single-sequence steps.
func (l *LSTM) stepInfer(x, h, c, zx, zh *tensor.Matrix) {
	qmul(l.be, zx, x, l.Wx, l.qwx)
	qmul(l.be, zh, h, l.Wh, l.qwh)
	for b := 0; b < x.Rows; b++ {
		zhr, cr := zh.Row(b), c.Row(b)
		// zh is spent once gates has added it in: its head holds tanh(c).
		l.gates(zx.Row(b), zhr, cr, cr, zhr[:l.Hidden], h.Row(b))
	}
}

// Params implements Layer.
func (l *LSTM) Params() []Param {
	return []Param{
		{Name: "lstm.Wx", Value: l.Wx.Data, Grad: l.gwx.Data},
		{Name: "lstm.Wh", Value: l.Wh.Data, Grad: l.gwh.Data},
		{Name: "lstm.b", Value: l.B, Grad: l.gb},
	}
}

// ZeroGrads implements Layer.
func (l *LSTM) ZeroGrads() { zeroAll(l.Params()) }
