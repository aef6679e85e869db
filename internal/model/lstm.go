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
	declared

	// forward caches: time-major slabs carved from the pass's workspace, a
	// block of batch rows per step, steps descending (block k is step T−1−k;
	// see workspace.go for why). h and c have one block more than the
	// others: block T is the state the sequence started from, so the state
	// before any step is the block after it.
	x, z, tc *tensor.Matrix // inputs, post-activation gates [i|f|g|o], tanh(c)
	h, c     *tensor.Matrix // hidden and cell states
	batch    int

	// stateful training (see state.go)
	carry   bool
	carried *carriedState
}

// newLSTM returns an LSTM whose weights and gradients c carves, with caches
// of its own. A non-nil r initializes the weights: Xavier-uniform, and
// forget bias 1.
func newLSTM(in, hidden int, r *rng.RNG, c *carver) *LSTM {
	l := &LSTM{In: in, Hidden: hidden}
	first := len(c.params)
	l.Wx, l.gwx = c.take("lstm.Wx", 4*hidden, in)
	l.Wh, l.gwh = c.take("lstm.Wh", 4*hidden, hidden)
	b, gb := c.take("lstm.b", 1, 4*hidden)
	l.B, l.gb, l.declared = b.Data, gb.Data, c.since(first)
	if r != nil {
		l.Wx.RandomizeUniform(r, math.Sqrt(6/float64(in+4*hidden)))
		l.Wh.RandomizeUniform(r, math.Sqrt(6/float64(hidden+4*hidden)))
		for i := hidden; i < 2*hidden; i++ {
			l.B[i] = 1 // forget gate bias
		}
	}
	return l
}

// gates is the cell: one row's pre-activations to its gates and new state, in
// vector passes over the contiguous [i|f|g|o] row. z holds x·Wxᵀ and becomes
// the post-activation gates (what backward reads): z += zh + b, σ over [i|f],
// tanh over g, σ over o; then c = f⊙cPrev + i⊙g (each product rounded, no
// FMA), tc = tanh(c), h = o⊙tc. forward and stepInfer both step through
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

// forward runs the layer over a whole sequence with full backpropagation
// through time to follow. x holds the T·batch input rows time-major, steps
// ascending (row step·batch+b); the (T·batch)×H hidden states come back in
// the same order, carved from ws like everything the pass keeps for backward.
//
// Only the recurrence is sequential: every step's x·Wxᵀ is one product over
// the whole sequence, and the time loop is left with h·Whᵀ and the gates.
// Each row of a product depends on that row's operands alone, so the gates
// see the bits the per-step products gave them.
func (l *LSTM) forward(ws *workspace, x *tensor.Matrix, batch int) *tensor.Matrix {
	n, hd := x.Rows, l.Hidden
	t := n / batch
	l.batch = batch
	l.x = ws.take(n, l.In)
	reverseBlocks(l.x, x, batch)
	l.z = ws.take(n, 4*hd)
	l.tc = ws.take(n, hd)
	l.h = ws.take(n+batch, hd)
	l.c = ws.take(n+batch, hd)
	initialState(l.carry, l.carried, ws.rows(l.h, n, batch), ws.rows(l.c, n, batch))

	tensor.MatMulABT(l.z, l.x, l.Wx)
	zh := ws.take(batch, 4*hd)
	for k := t - 1; k >= 0; k-- { // blocks descend, so this walks the steps forward
		lo := k * batch
		// z = x Wxᵀ + h_prev Whᵀ + b
		tensor.MatMulABT(zh, ws.rows(l.h, lo+batch, batch), l.Wh)
		for b := 0; b < batch; b++ {
			r := lo + b
			l.gates(l.z.Row(r), zh.Row(b), l.c.Row(r+batch), l.c.Row(r), l.tc.Row(r), l.h.Row(r))
		}
	}
	if l.carry {
		// Detach the final state for the next batch (truncated BPTT).
		l.carried = detach(l.carried, ws.rows(l.h, 0, batch), ws.rows(l.c, 0, batch))
	}
	hs := ws.take(n, hd)
	reverseBlocks(hs, ws.rows(l.h, 0, n), batch)
	return hs
}

// backward consumes dLoss/dh for the whole sequence (time-major, steps
// ascending, like forward's result) and returns dLoss/dx in the same layout,
// accumulating weight gradients.
//
// The time loop keeps what sits on the recurrence — the gate gradients and
// dh_prev = dz·Wh. Everything else runs once over the dz slab, which fills in
// the order the loop visits the steps (last to first): the weight-gradient
// products and the bias sums therefore add the same rows in the same order
// as one call per step did (workspace.go), and dx = dz·Wx is row by row.
func (l *LSTM) backward(ws *workspace, dh *tensor.Matrix) *tensor.Matrix {
	n, batch, h := dh.Rows, l.batch, l.Hidden
	if l.z == nil || n != l.z.Rows {
		panic("model: LSTM.backward length mismatch with forward")
	}
	t := n / batch

	dz := ws.take(n, 4*h)
	dhNext := ws.zeros(batch, h) // gradient flowing from step+1's h
	dcNext := ws.zeros(batch, h)

	for k := 0; k < t; k++ { // block k is step t−1−k
		lo, up := k*batch, (t-1-k)*batch
		for b := 0; b < batch; b++ {
			dhr := dh.Row(up + b)
			dhn := dhNext.Row(b)
			dcn := dcNext.Row(b)
			dzr := dz.Row(lo + b)
			zr, tcr, cpr := l.z.Row(lo+b), l.tc.Row(lo+b), l.c.Row(lo+batch+b)
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
		tensor.MatMul(dhNext, ws.rows(dz, lo, batch), l.Wh)
	}

	// Parameter gradients: gWx += dzᵀ x ; gWh += dzᵀ h_prev (the h slab one
	// block on) ; gb += colsum dz.
	tensor.MatMulATBAcc(l.gwx, dz, l.x)
	tensor.MatMulATBAcc(l.gwh, dz, ws.rows(l.h, batch, n))
	for r := 0; r < n; r++ {
		tensor.AddInPlace(l.gb, dz.Row(r))
	}

	dxs := ws.take(n, l.In)
	tensor.MatMul(dxs, dz, l.Wx)
	dx := ws.take(n, l.In)
	reverseBlocks(dx, dxs, batch)
	return dx
}

// stepInfer advances one inference timestep in place on be: x is the B×In
// input, h and c the B×H recurrent state (updated to the new state), zx and
// zh B×4H scratch. No backward caches are written and nothing is allocated,
// so the serving hot loop can call it per token at zero cost beyond the
// math. Every row goes through gates exactly as in forward and depends only
// on that row's input and state, so a batched step is bit-identical to B
// independent single-sequence steps.
func (l *LSTM) stepInfer(be tensor.Backend, x, h, c, zx, zh *tensor.Matrix) {
	qmul(be, zx, x, l.Wx, l.qwx)
	qmul(be, zh, h, l.Wh, l.qwh)
	for b := 0; b < x.Rows; b++ {
		zhr, cr := zh.Row(b), c.Row(b)
		// zh is spent once gates has added it in: its head holds tanh(c).
		l.gates(zx.Row(b), zhr, cr, cr, zhr[:l.Hidden], h.Row(b))
	}
}
