package model

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"zipflm/internal/core"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
	"zipflm/internal/tensor"
)

// The definition of a training step. Below are the per-timestep LSTM and RHN
// passes and the LM step around them exactly as they stood before the layers
// went sequence-level (one kernel call per product per timestep, a fresh
// zeroed matrix for every activation): each oracle embeds the production
// layer, so it reads the same weights and accumulates into the same kind of
// gradient buffers, and keeps its own per-timestep caches. The production
// path — whole-sequence products on reused, never-zeroed workspace slabs — is
// held to them bit for bit by TestSequenceMatchesPerStepOracle.

type oracleRNN interface {
	Forward(xs []*tensor.Matrix) []*tensor.Matrix
	Backward(dhs []*tensor.Matrix) []*tensor.Matrix
}

// oracleInitialState returns the starting (h0, c0) for a forward pass of the
// given batch size: the carried state when enabled and shape-compatible,
// zeros otherwise. The returned matrices are owned by the caller.
func oracleInitialState(carry bool, carried *carriedState, batch, hidden int, needC bool) (h0, c0 *tensor.Matrix) {
	if carry && carried != nil && carried.H != nil && carried.H.Rows == batch && carried.H.Cols == hidden {
		h0 = carried.H.Clone()
		if needC && carried.C != nil {
			c0 = carried.C.Clone()
		}
	}
	if h0 == nil {
		h0 = tensor.NewMatrix(batch, hidden)
	}
	if needC && c0 == nil {
		c0 = tensor.NewMatrix(batch, hidden)
	}
	return h0, c0
}

type lstmOracle struct {
	*LSTM

	// forward caches, one entry per timestep
	xs, hs, cs []*tensor.Matrix // inputs, hidden states, cell states
	zs, tcs    []*tensor.Matrix // post-activation gates [i|f|g|o] (B×4H), tanh(c)
	h0, c0     *tensor.Matrix
}

// Forward runs the layer over xs (T matrices of B×In), starting from zero
// initial state, and returns the T hidden states (B×H each).
func (l *lstmOracle) Forward(xs []*tensor.Matrix) []*tensor.Matrix {
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
	l.h0, l.c0 = oracleInitialState(l.carry, l.carried, batch, h, true)

	hPrev, cPrev := l.h0, l.c0
	zh := tensor.NewMatrix(batch, 4*h)
	for step := 0; step < t; step++ {
		// z = x Wxᵀ + h_prev Whᵀ + b
		z := tensor.NewMatrix(batch, 4*h)
		tensor.MatMulABT(z, xs[step], l.Wx)
		tensor.MatMulABT(zh, hPrev, l.Wh)
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
func (l *lstmOracle) Backward(dhs []*tensor.Matrix) []*tensor.Matrix {
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
		tensor.MatMulATBAcc(l.gwx, dz, l.xs[step])
		tensor.MatMulATBAcc(l.gwh, dz, hPrev)
		for b := 0; b < batch; b++ {
			tensor.AddInPlace(l.gb, dz.Row(b))
		}

		// Input and recurrent gradients.
		dx := tensor.NewMatrix(batch, l.In)
		tensor.MatMul(dx, dz, l.Wx)
		dxs[step] = dx
		tensor.MatMul(dhNext, dz, l.Wh)
	}
	return dxs
}

type rhnOracle struct {
	*RHN

	// forward caches
	xs []*tensor.Matrix
	// sStates[t][l] is s_l at step t, l in [0, Depth]; sStates[t][0] is
	// the incoming state.
	sStates [][]*tensor.Matrix
	hGate   [][]*tensor.Matrix // h_l per step/micro-layer
	tGate   [][]*tensor.Matrix // t_l per step/micro-layer
}

// Forward runs the layer over xs (T matrices of B×In) from a zero initial
// state, returning the T output states (B×H each).
func (l *rhnOracle) Forward(xs []*tensor.Matrix) []*tensor.Matrix {
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

	sPrev, _ := oracleInitialState(l.carry, l.carried, batch, h, false)
	outs := make([]*tensor.Matrix, t)

	zxh := tensor.NewMatrix(batch, h)
	zxt := tensor.NewMatrix(batch, h)
	for step := 0; step < t; step++ {
		tensor.MatMulABT(zxh, xs[step], l.Wh)
		tensor.MatMulABT(zxt, xs[step], l.Wt)
		states := make([]*tensor.Matrix, l.Depth+1)
		hs := make([]*tensor.Matrix, l.Depth)
		ts := make([]*tensor.Matrix, l.Depth)
		states[0] = sPrev
		s := sPrev
		for d := 0; d < l.Depth; d++ {
			hg := tensor.NewMatrix(batch, h)
			tg := tensor.NewMatrix(batch, h)
			tensor.MatMulABT(hg, s, l.Rh[d])
			tensor.MatMulABT(tg, s, l.Rt[d])
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
func (l *rhnOracle) Backward(dhs []*tensor.Matrix) []*tensor.Matrix {
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
			tensor.MatMulATBAcc(l.grh[d], dzh, sIn)
			tensor.MatMulATBAcc(l.grt[d], dzt, sIn)
			for b := 0; b < batch; b++ {
				tensor.AddInPlace(l.gbh[d], dzh.Row(b))
				tensor.AddInPlace(l.gbt[d], dzt.Row(b))
			}
			tensor.MatMul(tmp, dzh, l.Rh[d])
			tensor.AddInPlace(dsIn.Data, tmp.Data)
			tensor.MatMul(tmp, dzt, l.Rt[d])
			tensor.AddInPlace(dsIn.Data, tmp.Data)

			// Input projection contributes at micro-layer 0 only.
			if d == 0 {
				tensor.MatMulATBAcc(l.gwh, dzh, l.xs[step])
				tensor.MatMulATBAcc(l.gwt, dzt, l.xs[step])
				dxTmp := tensor.NewMatrix(batch, l.In)
				tensor.MatMul(dxTmp, dzh, l.Wh)
				tensor.AddInPlace(dx.Data, dxTmp.Data)
				tensor.MatMul(dxTmp, dzt, l.Wt)
				tensor.AddInPlace(dx.Data, dxTmp.Data)
			}
			ds = dsIn
		}
		dxs[step] = dx
		dsNext = ds
	}
	return dxs
}

// lmOracle is a replica stepped the old way: the LM step and EvalLoss as
// they stood, over the per-timestep oracle of its recurrent layer. The
// projection and the softmax losses, whose arithmetic the sequence-level
// change left alone, are the production ones on a fresh (hence zeroed and
// never reused) workspace per call — what tensor.NewMatrix used to give them.
type lmOracle struct {
	m   *LM
	rnn oracleRNN
}

func newLMOracle(cfg Config) *lmOracle {
	m := NewLM(cfg)
	o := &lmOracle{m: m}
	switch l := m.rnn.(type) {
	case *LSTM:
		o.rnn = &lstmOracle{LSTM: l}
	case *RHN:
		o.rnn = &rhnOracle{RHN: l}
	}
	return o
}

func (o *lmOracle) ForwardBackward(inputs, targets [][]int, sampler sampling.CandidateSampler) StepResult {
	m := o.m
	t := len(inputs)
	batch := len(inputs[0])

	// Input embedding lookup per timestep.
	xs := make([]*tensor.Matrix, t)
	flatIDs := make([]int, 0, t*batch)
	for step := 0; step < t; step++ {
		x := tensor.NewMatrix(batch, m.Cfg.Dim)
		tensor.GatherRows(x, m.InEmb, inputs[step])
		xs[step] = x
		flatIDs = append(flatIDs, inputs[step]...)
	}

	// RNN, then the projection applied to all timesteps stacked into one
	// (T·B)×H block so the Linear layer holds a single forward cache.
	hs := o.rnn.Forward(xs)
	hStacked := tensor.NewMatrix(t*batch, m.Cfg.Hidden)
	flatTargets := make([]int, 0, t*batch)
	for step := 0; step < t; step++ {
		copy(hStacked.Data[step*batch*m.Cfg.Hidden:], hs[step].Data)
		flatTargets = append(flatTargets, targets[step]...)
	}
	m.drop.Apply(hStacked)
	pStacked := m.proj.forward(new(workspace), hStacked)

	res := StepResult{}
	var dp *tensor.Matrix
	if m.Cfg.Sampled > 0 && sampler != nil {
		out := sampledSoftmaxLoss(new(workspace), pStacked, m.OutEmb, flatTargets, sampler, m.Cfg.Sampled)
		res.LossSum, res.Count = out.LossSum, out.Count
		dp = out.DH
		res.OutputGrad = core.SparseGrad{Indices: out.Candidates, Rows: out.DEmb}
	} else {
		lossSum, count, dh, dEmb := fullSoftmaxLoss(new(workspace), pStacked, m.OutEmb, flatTargets, true)
		res.LossSum, res.Count = lossSum, count
		dp = dh
		allIdx := make([]int, m.Cfg.Vocab)
		for i := range allIdx {
			allIdx[i] = i
		}
		res.OutputGrad = core.SparseGrad{Indices: allIdx, Rows: dEmb}
	}

	// Backward through projection, dropout, RNN, embedding.
	dhStacked := m.proj.backward(new(workspace), dp)
	m.drop.Backward(dhStacked)
	dhs := make([]*tensor.Matrix, t)
	for step := 0; step < t; step++ {
		dh := tensor.NewMatrix(batch, m.Cfg.Hidden)
		copy(dh.Data, dhStacked.Data[step*batch*m.Cfg.Hidden:(step+1)*batch*m.Cfg.Hidden])
		dhs[step] = dh
	}
	dxs := o.rnn.Backward(dhs)

	inRows := tensor.NewMatrix(t*batch, m.Cfg.Dim)
	for step := 0; step < t; step++ {
		copy(inRows.Data[step*batch*m.Cfg.Dim:], dxs[step].Data)
	}
	res.InputGrad = core.SparseGrad{Indices: flatIDs, Rows: inRows}
	return res
}

func (o *lmOracle) EvalLoss(stream []int, seqLen int) (lossSum float64, count int) {
	m := o.m
	saved := m.rnn.SnapshotState()
	m.rnn.ResetState()
	defer m.rnn.RestoreState(saved)
	for lo := 0; lo+1 < len(stream); lo += seqLen {
		hi := lo + seqLen
		if hi+1 > len(stream) {
			hi = len(stream) - 1
		}
		t := hi - lo
		if t == 0 {
			break
		}
		inputs := make([][]int, t)
		targets := make([][]int, t)
		for step := 0; step < t; step++ {
			inputs[step] = []int{stream[lo+step]}
			targets[step] = []int{stream[lo+step+1]}
		}
		xs := make([]*tensor.Matrix, t)
		for step := 0; step < t; step++ {
			x := tensor.NewMatrix(1, m.Cfg.Dim)
			tensor.GatherRows(x, m.InEmb, inputs[step])
			xs[step] = x
		}
		hs := o.rnn.Forward(xs)
		hStacked := tensor.NewMatrix(t, m.Cfg.Hidden)
		flatTargets := make([]int, t)
		for step := 0; step < t; step++ {
			copy(hStacked.Data[step*m.Cfg.Hidden:], hs[step].Data)
			flatTargets[step] = targets[step][0]
		}
		p := m.proj.forward(new(workspace), hStacked)
		l, c, _, _ := fullSoftmaxLoss(new(workspace), p, m.OutEmb, flatTargets, false)
		m.proj.x = nil
		lossSum += l
		count += c
	}
	return lossSum, count
}

// forwardSteps runs a layer's sequence-level forward on a fresh workspace
// over per-timestep inputs and returns its per-timestep outputs (copies).
func forwardSteps(l recurrent, xs []*tensor.Matrix) []*tensor.Matrix {
	batch, in := xs[0].Rows, xs[0].Cols
	x := tensor.NewMatrix(len(xs)*batch, in)
	for step, xt := range xs {
		copy(x.Data[step*batch*in:], xt.Data)
	}
	hs := l.forward(new(workspace), x, batch)
	outs := make([]*tensor.Matrix, len(xs))
	for step := range outs {
		outs[step] = tensor.NewMatrix(batch, hs.Cols)
		copy(outs[step].Data, hs.Data[step*batch*hs.Cols:])
	}
	return outs
}

// sameBits fails the test unless got and want are the same float32s bit for
// bit (NaN payloads and signed zeros included).
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d]: %v (%#08x), oracle %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func sameGrad(t *testing.T, what string, got, want core.SparseGrad) {
	t.Helper()
	if !slices.Equal(got.Indices, want.Indices) {
		t.Fatalf("%s indices: %v, oracle %v", what, got.Indices, want.Indices)
	}
	if got.Rows.Rows != want.Rows.Rows || got.Rows.Cols != want.Rows.Cols {
		t.Fatalf("%s rows: %d×%d, oracle %d×%d", what, got.Rows.Rows, got.Rows.Cols, want.Rows.Rows, want.Rows.Cols)
	}
	sameBits(t, what+" rows", got.Rows.Data, want.Rows.Data)
}

// TestSequenceMatchesPerStepOracle holds the production training path to the
// per-timestep definition above, bit for bit: dense gradients, both embedding
// gradients, the loss sum, the carried state and EvalLoss, over {LSTM, RHN
// depth 1 and 3} × {full, sampled} softmax × batch {1, 4} × T {1, 8, 20} ×
// {stateless, carried} × dropout {0, 0.3} × the LM's backend {Serial,
// Parallel(4)}: training reads no backend, so a tiled one installed on the
// LM must leave every bit where the serial oracle puts it. Each cell runs
// three steps of lengths T, T′≠T, T on one replica with an EvalLoss
// after the first, so the workspace regrows and is then reused by passes of
// other shapes, and fills the arena with NaN after every pass: a slab that is
// read before it is written, or an accumulator that is not cleared, poisons
// the next result. The gradients are cleared only before the first two steps,
// so the third accumulates into non-zero buffers.
func TestSequenceMatchesPerStepOracle(t *testing.T) {
	par := tensor.NewParallel(4)
	defer par.Close()
	backends := []struct {
		name string
		be   tensor.Backend
	}{{"serial", tensor.Serial{}}, {"parallel4", par}}
	rnns := []struct {
		name  string
		kind  RNNKind
		depth int
	}{{"lstm", KindLSTM, 0}, {"rhn1", KindRHN, 1}, {"rhn3", KindRHN, 3}}

	for _, rnn := range rnns {
		for _, sampled := range []int{0, 6} {
			for _, batch := range []int{1, 4} {
				for _, seqLen := range []int{1, 8, 20} {
					for _, stateful := range []bool{false, true} {
						for _, dropout := range []float64{0, 0.3} {
							for _, be := range backends {
								cfg := Config{Vocab: 40, Dim: 12, Hidden: 16, RNN: rnn.kind, RHNDepth: rnn.depth,
									Sampled: sampled, Stateful: stateful, Dropout: dropout, Seed: 7}
								name := fmt.Sprintf("%s/sampled=%d/B=%d/T=%d/stateful=%v/dropout=%v/%s",
									rnn.name, sampled, batch, seqLen, stateful, dropout, be.name)
								t.Run(name, func(t *testing.T) { oracleCell(t, cfg, be.be, batch, seqLen) })
							}
						}
					}
				}
			}
		}
	}
}

func oracleCell(t *testing.T, cfg Config, be tensor.Backend, batch, seqLen int) {
	m := NewLM(cfg)
	o := newLMOracle(cfg)
	m.SetBackend(be)

	other := 20
	if seqLen == 20 {
		other = 8
	}
	r := rng.New(uint64(seqLen*131 + batch))
	stream := make([]int, 50)
	for i := range stream {
		stream[i] = r.Intn(cfg.Vocab)
	}
	for step, T := range []int{seqLen, other, seqLen} {
		inputs, targets := randBatch(r, T, batch, cfg.Vocab), randBatch(r, T, batch, cfg.Vocab)
		if step < 2 {
			m.ZeroGrads()
			o.m.ZeroGrads()
		}
		var sg, so sampling.CandidateSampler
		if cfg.Sampled > 0 {
			sg = sampling.NewSampler(cfg.Vocab, uint64(100+step))
			so = sampling.NewSampler(cfg.Vocab, uint64(100+step))
		}
		got := m.ForwardBackward(inputs, targets, sg)
		want := o.ForwardBackward(inputs, targets, so)

		tag := fmt.Sprintf("step %d (T=%d)", step, T)
		if got.LossSum != want.LossSum || got.Count != want.Count {
			t.Fatalf("%s: loss %v over %d tokens, oracle %v over %d", tag, got.LossSum, got.Count, want.LossSum, want.Count)
		}
		sameGrad(t, tag+" InputGrad", got.InputGrad, want.InputGrad)
		sameGrad(t, tag+" OutputGrad", got.OutputGrad, want.OutputGrad)
		gp, wp := m.DenseParams(), o.m.DenseParams()
		for i := range wp {
			sameBits(t, tag+" grad "+wp[i].Name, gp[i].Grad, wp[i].Grad)
		}
		gc, wc := m.CarriedRNNState(), o.m.CarriedRNNState()
		if cfg.Stateful == (wc.H == nil) {
			t.Fatalf("%s: stateful=%v but the oracle's carried state is %v", tag, cfg.Stateful, wc.H)
		}
		sameBits(t, tag+" carried H", gc.H, wc.H)
		sameBits(t, tag+" carried C", gc.C, wc.C)

		// The results are compared; nothing of this pass may reach the next.
		// (The reset regrows the arena now, so the poison is not lost with
		// the old one.)
		m.ws.reset()
		for i := range m.ws.buf {
			m.ws.buf[i] = float32(math.NaN())
		}
		if step == 0 {
			gl, gn := m.EvalLoss(stream, 7)
			wl, wn := o.EvalLoss(stream, 7)
			if gl != wl || gn != wn {
				t.Fatalf("EvalLoss %v over %d tokens, oracle %v over %d", gl, gn, wl, wn)
			}
		}
	}
}
