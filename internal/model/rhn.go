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

	be tensor.Backend

	// forward caches
	xs []*tensor.Matrix
	// sStates[t][l] is s_l at step t, l in [0, Depth]; sStates[t][0] is
	// the incoming state.
	sStates [][]*tensor.Matrix
	hGate   [][]*tensor.Matrix // h_l per step/micro-layer
	tGate   [][]*tensor.Matrix // t_l per step/micro-layer

	// stateful training (see state.go)
	carry   bool
	carried *carriedState
}

// NewRHN returns an RHN layer with Xavier-uniform weights and carry-biased
// transform gates.
func NewRHN(in, hidden, depth int, r *rng.RNG) *RHN {
	if depth <= 0 {
		panic("model: RHN depth must be positive")
	}
	l := &RHN{
		In: in, Hidden: hidden, Depth: depth,
		Wh:  tensor.NewMatrix(hidden, in),
		Wt:  tensor.NewMatrix(hidden, in),
		gwh: tensor.NewMatrix(hidden, in),
		gwt: tensor.NewMatrix(hidden, in),
		be:  tensor.Serial{},
	}
	bound := math.Sqrt(6 / float64(in+hidden))
	l.Wh.RandomizeUniform(r, bound)
	l.Wt.RandomizeUniform(r, bound)
	rBound := math.Sqrt(6 / float64(2*hidden))
	for d := 0; d < depth; d++ {
		rh := tensor.NewMatrix(hidden, hidden)
		rt := tensor.NewMatrix(hidden, hidden)
		rh.RandomizeUniform(r, rBound)
		rt.RandomizeUniform(r, rBound)
		l.Rh = append(l.Rh, rh)
		l.Rt = append(l.Rt, rt)
		l.grh = append(l.grh, tensor.NewMatrix(hidden, hidden))
		l.grt = append(l.grt, tensor.NewMatrix(hidden, hidden))
		bh := make([]float32, hidden)
		bt := make([]float32, hidden)
		for i := range bt {
			bt[i] = -1 // bias toward carry at init
		}
		l.Bh = append(l.Bh, bh)
		l.Bt = append(l.Bt, bt)
		l.gbh = append(l.gbh, make([]float32, hidden))
		l.gbt = append(l.gbt, make([]float32, hidden))
	}
	return l
}

func (l *RHN) setBackend(be tensor.Backend) { l.be = be }

// gates is micro-layer d of the cell for one row, in vector passes: zh and
// zt hold s·Rhᵀ and s·Rtᵀ and become h_l and t_l (what Backward reads) —
// bias added, then the input projections xh, xt (nil past the first
// micro-layer), tanh and σ in place — and sNext = h⊙t + s⊙(1−t), each
// product rounded (no FMA). Forward and stepInfer both step through here, so
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

// Forward runs the layer over xs (T matrices of B×In) from a zero initial
// state, returning the T output states (B×H each).
func (l *RHN) Forward(xs []*tensor.Matrix) []*tensor.Matrix {
	t := len(xs)
	if t == 0 {
		return nil
	}
	batch := xs[0].Rows
	h := l.Hidden

	l.xs = xs
	l.sStates = make([][]*tensor.Matrix, t)
	l.hGate = make([][]*tensor.Matrix, t)
	l.tGate = make([][]*tensor.Matrix, t)

	sPrev, _ := initialState(l.carry, l.carried, batch, h, false)
	outs := make([]*tensor.Matrix, t)

	zxh := tensor.NewMatrix(batch, h)
	zxt := tensor.NewMatrix(batch, h)
	for step := 0; step < t; step++ {
		l.be.MatMulABT(zxh, xs[step], l.Wh)
		l.be.MatMulABT(zxt, xs[step], l.Wt)
		states := make([]*tensor.Matrix, l.Depth+1)
		hs := make([]*tensor.Matrix, l.Depth)
		ts := make([]*tensor.Matrix, l.Depth)
		states[0] = sPrev
		s := sPrev
		for d := 0; d < l.Depth; d++ {
			hg := tensor.NewMatrix(batch, h)
			tg := tensor.NewMatrix(batch, h)
			l.be.MatMulABT(hg, s, l.Rh[d])
			l.be.MatMulABT(tg, s, l.Rt[d])
			sNext := tensor.NewMatrix(batch, h)
			for b := 0; b < batch; b++ {
				var xh, xt []float32
				if d == 0 {
					xh, xt = zxh.Row(b), zxt.Row(b)
				}
				l.gates(d, hg.Row(b), tg.Row(b), xh, xt, s.Row(b), sNext.Row(b))
			}
			hs[d], ts[d] = hg, tg
			states[d+1] = sNext
			s = sNext
		}
		l.sStates[step], l.hGate[step], l.tGate[step] = states, hs, ts
		outs[step] = s
		sPrev = s
	}
	if l.carry {
		// Detach the final state for the next batch (truncated BPTT).
		l.carried = &carriedState{H: sPrev.Clone()}
	}
	return outs
}

// Backward consumes dLoss/ds_Depth per timestep, returns dLoss/dx per
// timestep, and accumulates weight gradients.
func (l *RHN) Backward(dhs []*tensor.Matrix) []*tensor.Matrix {
	t := len(dhs)
	if t != len(l.sStates) {
		panic(fmt.Sprintf("model: RHN.Backward got %d steps, Forward ran %d", t, len(l.sStates)))
	}
	if t == 0 {
		return nil
	}
	batch := dhs[0].Rows
	h := l.Hidden

	dxs := make([]*tensor.Matrix, t)
	dsNext := tensor.NewMatrix(batch, h) // recurrent gradient from step+1
	dzh := tensor.NewMatrix(batch, h)
	dzt := tensor.NewMatrix(batch, h)
	tmp := tensor.NewMatrix(batch, h)

	for step := t - 1; step >= 0; step-- {
		ds := tensor.NewMatrix(batch, h)
		tensor.AddInPlace(ds.Data, dhs[step].Data)
		tensor.AddInPlace(ds.Data, dsNext.Data)

		dx := tensor.NewMatrix(batch, l.In)
		for d := l.Depth - 1; d >= 0; d-- {
			sIn := l.sStates[step][d]
			hg, tg := l.hGate[step][d], l.tGate[step][d]
			dsIn := tensor.NewMatrix(batch, h)
			for b := 0; b < batch; b++ {
				dsr := ds.Row(b)
				for j := 0; j < h; j++ {
					dsl := float64(dsr[j])
					hv := float64(hg.Row(b)[j])
					tv := float64(tg.Row(b)[j])
					sv := float64(sIn.Row(b)[j])

					dhv := dsl * tv
					dtv := dsl * (hv - sv)
					dsIn.Row(b)[j] = float32(dsl * (1 - tv))

					dzh.Row(b)[j] = float32(dhv * (1 - hv*hv))
					dzt.Row(b)[j] = float32(dtv * tv * (1 - tv))
				}
			}

			// Recurrent weight gradients and state gradient.
			l.be.MatMulATBAcc(l.grh[d], dzh, sIn)
			l.be.MatMulATBAcc(l.grt[d], dzt, sIn)
			for b := 0; b < batch; b++ {
				tensor.AddInPlace(l.gbh[d], dzh.Row(b))
				tensor.AddInPlace(l.gbt[d], dzt.Row(b))
			}
			l.be.MatMul(tmp, dzh, l.Rh[d])
			tensor.AddInPlace(dsIn.Data, tmp.Data)
			l.be.MatMul(tmp, dzt, l.Rt[d])
			tensor.AddInPlace(dsIn.Data, tmp.Data)

			// Input projection contributes at micro-layer 0 only.
			if d == 0 {
				l.be.MatMulATBAcc(l.gwh, dzh, l.xs[step])
				l.be.MatMulATBAcc(l.gwt, dzt, l.xs[step])
				dxTmp := tensor.NewMatrix(batch, l.In)
				l.be.MatMul(dxTmp, dzh, l.Wh)
				tensor.AddInPlace(dx.Data, dxTmp.Data)
				l.be.MatMul(dxTmp, dzt, l.Wt)
				tensor.AddInPlace(dx.Data, dxTmp.Data)
			}
			ds = dsIn
		}
		dxs[step] = dx
		dsNext = ds
	}
	return dxs
}

// stepInfer advances one inference timestep in place: x is the B×In input,
// s the B×H recurrent state (updated through all Depth micro-layers), and
// zxh/zxt/zrh/zrt are B×H scratch. Like the LSTM counterpart it writes no
// backward caches, allocates nothing, runs every row through gates exactly
// as Forward does, and keeps every row independent so batched and
// single-sequence stepping are bit-identical.
func (l *RHN) stepInfer(x, s, zxh, zxt, zrh, zrt *tensor.Matrix) {
	qmul(l.be, zxh, x, l.Wh, l.qwh)
	qmul(l.be, zxt, x, l.Wt, l.qwt)
	for d := 0; d < l.Depth; d++ {
		var qrh, qrt *tensor.QMatrix
		if l.qrh != nil {
			qrh, qrt = l.qrh[d], l.qrt[d]
		}
		qmul(l.be, zrh, s, l.Rh[d], qrh)
		qmul(l.be, zrt, s, l.Rt[d], qrt)
		for b := 0; b < x.Rows; b++ {
			var xh, xt []float32
			if d == 0 {
				xh, xt = zxh.Row(b), zxt.Row(b)
			}
			l.gates(d, zrh.Row(b), zrt.Row(b), xh, xt, s.Row(b), s.Row(b))
		}
	}
}

// Params implements Layer.
func (l *RHN) Params() []Param {
	ps := []Param{
		{Name: "rhn.Wh", Value: l.Wh.Data, Grad: l.gwh.Data},
		{Name: "rhn.Wt", Value: l.Wt.Data, Grad: l.gwt.Data},
	}
	for d := 0; d < l.Depth; d++ {
		ps = append(ps,
			Param{Name: fmt.Sprintf("rhn.Rh%d", d), Value: l.Rh[d].Data, Grad: l.grh[d].Data},
			Param{Name: fmt.Sprintf("rhn.Rt%d", d), Value: l.Rt[d].Data, Grad: l.grt[d].Data},
			Param{Name: fmt.Sprintf("rhn.bh%d", d), Value: l.Bh[d], Grad: l.gbh[d]},
			Param{Name: fmt.Sprintf("rhn.bt%d", d), Value: l.Bt[d], Grad: l.gbt[d]},
		)
	}
	return ps
}

// ZeroGrads implements Layer.
func (l *RHN) ZeroGrads() { zeroAll(l.Params()) }
