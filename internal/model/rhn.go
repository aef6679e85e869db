package model

import (
	"fmt"
	"math"

	"zipflm/internal/rng"
	"zipflm/internal/tensor"
)

// RHN is a recurrent highway network layer (Zilly et al.), the architecture
// of the paper's character model (§IV-B: "a recurrent highway network (RHN)
// layer of depth 10, each with 1792 cells", after Hestness et al.).
//
// Each timestep applies Depth micro-layers to the recurrent state s with a
// coupled carry gate:
//
//	h_l = tanh(Wh·x·[l=1] + Rh_l·s_{l-1} + bh_l)
//	t_l = σ   (Wt·x·[l=1] + Rt_l·s_{l-1} + bt_l)
//	s_l = h_l⊙t_l + s_{l-1}⊙(1−t_l)
//
// The input projects in only at the first micro-layer; the layer output at
// step t is s_Depth, which becomes s_0 of step t+1.
type RHN struct {
	In, Hidden, Depth int

	// Wh, Wt project the input at micro-layer 1 (H×In).
	Wh, Wt *tensor.Matrix
	// Rh, Rt are the per-micro-layer recurrent weights (each H×H).
	Rh, Rt []*tensor.Matrix
	// Bh, Bt are per-micro-layer biases (each H). Bt starts negative so
	// the carry gate initially dominates (standard highway init).
	Bh, Bt [][]float32

	// qwh/qwt/qrh/qrt are the int8 shadows of the corresponding weights
	// (see quantize.go); non-nil routes stepInfer through the quantized
	// kernels.
	qwh, qwt *tensor.QMatrix
	qrh, qrt []*tensor.QMatrix

	gwh, gwt *tensor.Matrix
	grh, grt []*tensor.Matrix
	gbh, gbt [][]float32
	declared

	// forward caches: time-major slabs carved from the pass's workspace, a
	// block of batch rows per step, steps descending (block k is step T−1−k;
	// see workspace.go for why), one slab per micro-layer. s[d] is
	// micro-layer d's output s_{d+1}; the last one, the layer's output, has
	// one block more: block T is the state the sequence started from, so a
	// step's incoming state is the block after its output. sIn[d] is what
	// micro-layer d reads: s[d−1], or for the first one that view of the
	// layer's own outputs one block on.
	x      *tensor.Matrix
	s, sIn []*tensor.Matrix
	hGate  []*tensor.Matrix // h_l per micro-layer
	tGate  []*tensor.Matrix // t_l per micro-layer
	dh, dt []*tensor.Matrix // backward's pre-activation gradients, same layout
	batch  int

	carry // stateful training (see state.go)
}

// newRHN returns an RHN layer whose weights and gradients c carves, with
// caches of its own. A non-nil r initializes the weights: Xavier-uniform,
// and carry-biased transform gates.
func newRHN(in, hidden, depth int, r *rng.RNG, c *carver) *RHN {
	if depth <= 0 {
		panic("model: RHN depth must be positive")
	}
	l := &RHN{
		In: in, Hidden: hidden, Depth: depth,

		s:     make([]*tensor.Matrix, depth),
		sIn:   make([]*tensor.Matrix, depth),
		hGate: make([]*tensor.Matrix, depth),
		tGate: make([]*tensor.Matrix, depth),
		dh:    make([]*tensor.Matrix, depth),
		dt:    make([]*tensor.Matrix, depth),
	}
	first := len(c.params)
	l.Wh, l.gwh = c.take("rhn.Wh", hidden, in)
	l.Wt, l.gwt = c.take("rhn.Wt", hidden, in)
	bound := math.Sqrt(6 / float64(in+hidden))
	if r != nil {
		l.Wh.RandomizeUniform(r, bound)
		l.Wt.RandomizeUniform(r, bound)
	}
	rBound := math.Sqrt(6 / float64(2*hidden))
	for d := 0; d < depth; d++ {
		rh, grh := c.take(fmt.Sprintf("rhn.Rh%d", d), hidden, hidden)
		rt, grt := c.take(fmt.Sprintf("rhn.Rt%d", d), hidden, hidden)
		bh, gbh := c.take(fmt.Sprintf("rhn.bh%d", d), 1, hidden)
		bt, gbt := c.take(fmt.Sprintf("rhn.bt%d", d), 1, hidden)
		if r != nil {
			rh.RandomizeUniform(r, rBound)
			rt.RandomizeUniform(r, rBound)
			for i := range bt.Data {
				bt.Data[i] = -1 // bias toward carry at init
			}
		}
		l.Rh, l.grh = append(l.Rh, rh), append(l.grh, grh)
		l.Rt, l.grt = append(l.Rt, rt), append(l.grt, grt)
		l.Bh, l.gbh = append(l.Bh, bh.Data), append(l.gbh, gbh.Data)
		l.Bt, l.gbt = append(l.Bt, bt.Data), append(l.gbt, gbt.Data)
	}
	l.declared = c.since(first)
	return l
}

// gates is micro-layer d of the cell for one row, in vector passes: zh and
// zt hold s·Rhᵀ and s·Rtᵀ and become h_l and t_l (what backward reads) —
// bias added, then the input projections xh, xt (nil past the first
// micro-layer), tanh and σ in place — and sNext = h⊙t + s⊙(1−t), each
// product rounded (no FMA). forward and stepInfer both step through here, so
// training and serving compute the same bits; sNext may be s.
func (l *RHN) gates(d int, zh, zt, xh, xt, s, sNext []float32) {
	tensor.AddInPlace(zh, l.Bh[d])
	tensor.AddInPlace(zt, l.Bt[d])
	if xh != nil {
		tensor.AddInPlace(zh, xh)
		tensor.AddInPlace(zt, xt)
	}
	tensor.Tanh(zh, zh)
	tensor.Sigmoid(zt, zt)
	for j := range sNext {
		sNext[j] = float32(zh[j]*zt[j]) + float32(s[j]*float32(1-zt[j]))
	}
}

// forward runs the layer over a whole sequence. x holds the T·batch input
// rows time-major, steps ascending (row step·batch+b); the (T·batch)×H output
// states come back in the same order, carved from ws like everything the pass
// keeps for backward. The input projections x·Whᵀ and x·Wtᵀ do not sit on the
// recurrence and run once over the whole sequence (a row of a product depends
// on that row alone, so the gates see the bits the per-step products gave
// them); the time loop is left with the recurrent products and the gates.
func (l *RHN) forward(ws *workspace, x *tensor.Matrix, batch int) *tensor.Matrix {
	n, h, last := x.Rows, l.Hidden, l.Depth-1
	t := n / batch
	l.batch = batch
	l.x = ws.take(n, l.In)
	reverseBlocks(l.x, x, batch)
	for d := range l.s {
		l.hGate[d] = ws.take(n, h)
		l.tGate[d] = ws.take(n, h)
		rows := n
		if d == last {
			rows += batch
		}
		l.s[d] = ws.take(rows, h)
	}
	l.sIn[0] = ws.rows(l.s[last], batch, n)
	copy(l.sIn[1:], l.s)
	l.start(ws.rows(l.s[last], n, batch), nil)

	zxh := ws.take(n, h)
	zxt := ws.take(n, h)
	tensor.MatMulABT(zxh, l.x, l.Wh)
	tensor.MatMulABT(zxt, l.x, l.Wt)
	for k := t - 1; k >= 0; k-- { // blocks descend, so this walks the steps forward
		lo := k * batch
		s := ws.rows(l.s[last], lo+batch, batch)
		for d := 0; d < l.Depth; d++ {
			hg := ws.rows(l.hGate[d], lo, batch)
			tg := ws.rows(l.tGate[d], lo, batch)
			tensor.MatMulABT(hg, s, l.Rh[d])
			tensor.MatMulABT(tg, s, l.Rt[d])
			sNext := ws.rows(l.s[d], lo, batch)
			for b := 0; b < batch; b++ {
				var xh, xt []float32
				if d == 0 {
					xh, xt = zxh.Row(lo+b), zxt.Row(lo+b)
				}
				l.gates(d, hg.Row(b), tg.Row(b), xh, xt, s.Row(b), sNext.Row(b))
			}
			s = sNext
		}
	}
	if l.on {
		// Detach the final state for the next batch (truncated BPTT).
		l.keep(ws.rows(l.s[last], 0, batch), nil)
	}
	outs := ws.take(n, h)
	reverseBlocks(outs, ws.rows(l.s[last], 0, n), batch)
	return outs
}

// backward consumes dLoss/ds_Depth for the whole sequence (time-major, steps
// ascending, like forward's result), returns dLoss/dx in the same layout, and
// accumulates weight gradients.
//
// The time loop keeps what sits on the recurrence: the gate gradients and the
// state gradient through Rh and Rt. It leaves each micro-layer's
// pre-activation gradients in slabs that fill in the order it visits the
// steps (last to first), and everything else runs once per sequence over
// them: the weight-gradient products and bias sums add the same rows in the
// same order as one call per step did (workspace.go), and dx is row by row.
func (l *RHN) backward(ws *workspace, dhs *tensor.Matrix) *tensor.Matrix {
	n, batch, h := dhs.Rows, l.batch, l.Hidden
	if l.x == nil || n != l.x.Rows {
		panic("model: RHN.backward length mismatch with forward")
	}
	t := n / batch

	for d := range l.dh {
		l.dh[d] = ws.take(n, h)
		l.dt[d] = ws.take(n, h)
	}
	dsNext := ws.zeros(batch, h) // recurrent gradient from step+1
	ds := ws.take(batch, h)
	dsIn := ws.take(batch, h)
	tmp := ws.take(batch, h)

	for k := 0; k < t; k++ { // block k is step t−1−k
		lo, up := k*batch, (t-1-k)*batch
		ds.Zero()
		tensor.AddInPlace(ds.Data, dhs.Data[up*h:(up+batch)*h])
		tensor.AddInPlace(ds.Data, dsNext.Data)

		for d := l.Depth - 1; d >= 0; d-- {
			sIn := l.sIn[d]
			dzh, dzt := ws.rows(l.dh[d], lo, batch), ws.rows(l.dt[d], lo, batch)
			for b := 0; b < batch; b++ {
				dsr, dsi := ds.Row(b), dsIn.Row(b)
				hgr, tgr, sr := l.hGate[d].Row(lo+b), l.tGate[d].Row(lo+b), sIn.Row(lo+b)
				dzhr, dztr := dzh.Row(b), dzt.Row(b)
				for j := 0; j < h; j++ {
					dsl := float64(dsr[j])
					hv := float64(hgr[j])
					tv := float64(tgr[j])
					sv := float64(sr[j])

					dhv := dsl * tv
					dtv := dsl * (hv - sv)
					dsi[j] = float32(dsl * (1 - tv))

					dzhr[j] = float32(dhv * (1 - hv*hv))
					dztr[j] = float32(dtv * tv * (1 - tv))
				}
			}

			// State gradient through the recurrent weights.
			tensor.MatMul(tmp, dzh, l.Rh[d])
			tensor.AddInPlace(dsIn.Data, tmp.Data)
			tensor.MatMul(tmp, dzt, l.Rt[d])
			tensor.AddInPlace(dsIn.Data, tmp.Data)
			ds, dsIn = dsIn, ds
		}
		dsNext, ds = ds, dsNext
	}

	// Recurrent weight and bias gradients, per micro-layer.
	for d := 0; d < l.Depth; d++ {
		tensor.MatMulATBAcc(l.grh[d], l.dh[d], l.sIn[d])
		tensor.MatMulATBAcc(l.grt[d], l.dt[d], l.sIn[d])
		for r := 0; r < n; r++ {
			tensor.AddInPlace(l.gbh[d], l.dh[d].Row(r))
			tensor.AddInPlace(l.gbt[d], l.dt[d].Row(r))
		}
	}

	// The input projects in at micro-layer 0 only.
	tensor.MatMulATBAcc(l.gwh, l.dh[0], l.x)
	tensor.MatMulATBAcc(l.gwt, l.dt[0], l.x)
	dxs := ws.zeros(n, l.In)
	dxTmp := ws.take(n, l.In)
	tensor.MatMul(dxTmp, l.dh[0], l.Wh)
	tensor.AddInPlace(dxs.Data, dxTmp.Data)
	tensor.MatMul(dxTmp, l.dt[0], l.Wt)
	tensor.AddInPlace(dxs.Data, dxTmp.Data)
	dx := ws.take(n, l.In)
	reverseBlocks(dx, dxs, batch)
	return dx
}

// stepInfer advances one inference timestep in place on be: x is the B×In
// input, s the B×H recurrent state (updated through all Depth
// micro-layers), and zxh/zxt/zrh/zrt are B×H scratch. Like the LSTM counterpart it writes no
// backward caches, allocates nothing, runs every row through gates exactly
// as forward does, and keeps every row independent so batched and
// single-sequence stepping are bit-identical.
func (l *RHN) stepInfer(be tensor.Backend, x, s, zxh, zxt, zrh, zrt *tensor.Matrix) {
	qmul(be, zxh, x, l.Wh, l.qwh)
	qmul(be, zxt, x, l.Wt, l.qwt)
	for d := 0; d < l.Depth; d++ {
		var qrh, qrt *tensor.QMatrix
		if l.qrh != nil {
			qrh, qrt = l.qrh[d], l.qrt[d]
		}
		qmul(be, zrh, s, l.Rh[d], qrh)
		qmul(be, zrt, s, l.Rt[d], qrt)
		for b := 0; b < x.Rows; b++ {
			var xh, xt []float32
			if d == 0 {
				xh, xt = zxh.Row(b), zxt.Row(b)
			}
			l.gates(d, zrh.Row(b), zrt.Row(b), xh, xt, s.Row(b), s.Row(b))
		}
	}
}
