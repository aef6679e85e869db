package model

import (
	"fmt"
	"slices"

	"zipflm/internal/core"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
	"zipflm/internal/tensor"
)

// RNNKind selects the recurrent architecture.
type RNNKind int

const (
	// KindLSTM is the word-LM architecture (§IV-B).
	KindLSTM RNNKind = iota
	// KindRHN is the char-LM architecture (§IV-B).
	KindRHN
)

// Config describes a language model. Dimensions are free so the
// reproduction can train paper-shaped models at laptop scale.
type Config struct {
	// Vocab is |V| including <unk>.
	Vocab int
	// Dim is the embedding dimension D (input and output embeddings
	// share it, as §II-B notes is standard).
	Dim int
	// Hidden is the RNN cell count.
	Hidden int
	// RNN selects LSTM (word LM) or RHN (char LM).
	RNN RNNKind
	// RHNDepth is the micro-layer count for KindRHN (paper: 10).
	RHNDepth int
	// Sampled is the number of softmax samples per step; 0 selects the
	// full softmax (char LM).
	Sampled int
	// Stateful carries the RNN state across batches (truncated BPTT), the
	// way production LM training feeds contiguous corpus lanes.
	Stateful bool
	// Dropout is the training-time dropout probability on the RNN outputs
	// (§IV-B: the char model uses "Adam with weight decay and dropout");
	// 0 disables it. Evaluation and generation are never masked.
	Dropout float64
	// Seed initializes parameters deterministically.
	Seed uint64
}

// recurrent is the common interface of LSTM and RHN: sequence-level forward
// and backward over time-major slabs (see workspace.go), so only the
// recurrence itself runs once per timestep.
type recurrent interface {
	Layer
	// forward runs T = x.Rows/batch steps over x, the (T·batch)×Dim inputs
	// with steps ascending, and returns the (T·batch)×Hidden outputs in the
	// same order; backward takes the loss gradient of those outputs and
	// returns that of the inputs, accumulating weight gradients. Both work
	// in ws, which must not be reset in between.
	forward(ws *workspace, x *tensor.Matrix, batch int) *tensor.Matrix
	backward(ws *workspace, dh *tensor.Matrix) *tensor.Matrix
	// quantizeWeights builds int8 shadows for the inference step path
	// (see quantize.go).
	quantizeWeights(chunk int)
	// Stateful-training hooks (see state.go).
	SetCarry(bool)
	ResetState()
	SnapshotState() any
	RestoreState(any)
}

// LM is a full language model replica: input embedding → RNN → projection →
// output embedding + softmax. One replica lives on each simulated rank.
type LM struct {
	Cfg Config
	// InEmb and OutEmb are the V×D embedding matrices whose gradient
	// exchange the paper optimizes.
	InEmb, OutEmb *tensor.Matrix
	rnn           recurrent
	proj          *Linear
	drop          *dropout
	// be runs the inference Stepper's products (see SetBackend).
	be tensor.Backend
	// qOutEmb is the int8 shadow of OutEmb for the quantized inference
	// path (see quantize.go); nil on an FP32 replica.
	qOutEmb *tensor.QMatrix

	// values and grads are the dense slabs every dense tensor is a view of
	// (see carver): values is shared with every Replica, grads is this
	// replica's own. layers and dense are DenseLayers' and DenseParams'
	// results, built once.
	values, grads []float32
	layers        []Layer
	dense         []Param

	// Training scratch, sized by the first ForwardBackward or EvalLoss (a
	// serving replica never pays for it) and reused by every later one.
	ws          workspace
	flatIDs     []int
	flatTargets []int
	allIdx      []int // 0..V−1, the full softmax's OutputGrad.Indices
}

// NewLM builds a model from cfg with deterministic initialization, on the
// serial backend (see SetBackend).
func NewLM(cfg Config) *LM {
	return newLM(cfg, rng.New(cfg.Seed), nil, nil, nil, tensor.Serial{})
}

// newLM builds a model of cfg's shape on backend be over the embeddings in
// and out and the dense value slab values — nil allocates zeros — and
// initializes them from r unless r is nil. Everything a training step
// writes is its own.
func newLM(cfg Config, r *rng.RNG, in, out, values []float32, be tensor.Backend) *LM {
	if cfg.Vocab <= 0 || cfg.Dim <= 0 || cfg.Hidden <= 0 {
		panic("model: Vocab, Dim and Hidden must be positive")
	}
	emb := cfg.Vocab * cfg.Dim
	if in == nil {
		in, out, values = make([]float32, emb), make([]float32, emb), make([]float32, int(paramFloats(cfg))-2*emb)
	}
	m := &LM{
		Cfg:    cfg,
		InEmb:  tensor.NewMatrixFrom(cfg.Vocab, cfg.Dim, in),
		OutEmb: tensor.NewMatrixFrom(cfg.Vocab, cfg.Dim, out),
		be:     be,
		values: values,
		grads:  make([]float32, len(values)),
	}
	if r != nil {
		m.InEmb.RandomizeNormal(r, 0.05)
		m.OutEmb.RandomizeNormal(r, 0.05)
	}
	c := &carver{values: m.values, grads: m.grads}
	switch cfg.RNN {
	case KindLSTM:
		m.rnn = newLSTM(cfg.Dim, cfg.Hidden, r, c)
	case KindRHN:
		depth := cfg.RHNDepth
		if depth == 0 {
			depth = 2
		}
		m.rnn = newRHN(cfg.Dim, cfg.Hidden, depth, r, c)
	default:
		panic(fmt.Sprintf("model: unknown RNN kind %d", cfg.RNN))
	}
	m.proj = newLinear(cfg.Hidden, cfg.Dim, r, c)
	m.layers, m.dense = []Layer{m.rnn, m.proj}, c.since(0)
	m.rnn.SetCarry(cfg.Stateful)
	m.drop = newDropout(cfg.Dropout, cfg.Seed^0x5bd1e995)
	return m
}

// Replica returns a model on m's backend whose weight tensors are m's own
// storage, so that data-parallel ranks share one set of weights. Everything
// a step writes is the replica's own: gradients, workspace and caches, the
// dropout stream (seeded as NewLM seeds it) and the carried state.
func (m *LM) Replica() *LM { return newLM(m.Cfg, nil, m.InEmb.Data, m.OutEmb.Data, m.values, m.be) }

// Clone returns a model on m's backend with a copy of m's weights and, like
// Replica, training state of its own. Int8 inference shadows are not copied.
func (m *LM) Clone() *LM {
	return newLM(m.Cfg, nil, slices.Clone(m.InEmb.Data), slices.Clone(m.OutEmb.Data), slices.Clone(m.values), m.be)
}

// Weights lists every weight tensor: InEmb, OutEmb, then DenseParams. The
// embeddings' entries carry no Grad (their gradients are sparse).
func (m *LM) Weights() []Param {
	return append([]Param{{Name: "InEmb", Value: m.InEmb.Data}, {Name: "OutEmb", Value: m.OutEmb.Data}}, m.dense...)
}

// SetBackend routes the products of this replica's inference Steppers
// through be (nil restores the serial reference); training and evaluation
// always run the package kernels on the calling goroutine. The backend is a
// runtime property, deliberately outside Config: checkpoints gob-encode
// Config, and a model loaded from one must be free to serve on any worker
// count while staying bit-identical — which every backend guarantees. A
// Stepper reads the backend at every step, so one built before SetBackend
// computes on the new backend from its next step on.
func (m *LM) SetBackend(be tensor.Backend) {
	if be == nil {
		be = tensor.Serial{}
	}
	m.be = be
}

// Backend returns the compute backend this replica's Steppers use.
func (m *LM) Backend() tensor.Backend { return m.be }

// DenseLayers returns the layers whose gradients synchronize with a plain
// ALLREDUCE (the RNN and projection — §II-B: "to update the RNN parameters,
// the models perform an ALLREDUCE"). Like DenseParams, the list is shared by
// every call: read it, do not modify it.
func (m *LM) DenseLayers() []Layer { return m.layers }

// DenseParams flattens DenseLayers' parameters. The list is built once and
// shared by every call (see Layer.Params): read it, do not modify it;
// appending to it copies.
func (m *LM) DenseParams() []Param { return m.dense }

// DenseGrads is this replica's gradient slab: every DenseParams Grad, in
// that order and without gaps, as one slice.
func (m *LM) DenseGrads() []float32 { return m.grads }

// ZeroGrads clears all dense gradient accumulators.
func (m *LM) ZeroGrads() { clear(m.grads) }

// StepResult is one training step's losses and embedding gradients. Dense
// layer gradients accumulate inside the layers (DenseParams).
//
// The gradients' matrices and index slices live in the replica's training
// workspace: they are valid until the next ForwardBackward or EvalLoss on
// this replica, which reuses that storage. Copy what must outlive the step.
type StepResult struct {
	// LossSum is the summed training cross-entropy in nats; Count the
	// token count (mean loss = LossSum/Count).
	LossSum float64
	Count   int
	// InputGrad is the input-embedding sparse gradient (one row per
	// token) for the §III exchange.
	InputGrad core.SparseGrad
	// OutputGrad is the output-embedding sparse gradient. For the full
	// softmax it covers every vocabulary row (dense in sparse clothing);
	// for sampled softmax it covers the candidate set only.
	OutputGrad core.SparseGrad
}

// ForwardBackward runs one training step on a batch laid out as
// inputs[t][b] / targets[t][b] (T timesteps × B sequences). For sampled
// softmax pass the rank's sampler; with sampler == nil (or cfg.Sampled == 0)
// the full softmax is used. Backpropagation finishes the dense layers in
// the reverse of DenseLayers' order: the projection, then the RNN.
//
// Everything between the layers is one time-major (T·B)×N matrix with steps
// ascending — the row order flatIDs, flatTargets and InputGrad.Rows have
// always had, and the one the projection's weight gradient, the loss sum and
// the exchange's local reduce accumulate in.
func (m *LM) ForwardBackward(inputs, targets [][]int, sampler sampling.CandidateSampler) StepResult {
	t := len(inputs)
	if t == 0 || len(targets) != t {
		panic("model: inputs/targets must have equal positive length")
	}
	batch := len(inputs[0])
	ws := &m.ws
	ws.reset()

	// Input embedding lookup.
	m.flatIDs, m.flatTargets = m.flatIDs[:0], m.flatTargets[:0]
	for step := 0; step < t; step++ {
		if len(inputs[step]) != batch || len(targets[step]) != batch {
			panic("model: ragged batch")
		}
		m.flatIDs = append(m.flatIDs, inputs[step]...)
		m.flatTargets = append(m.flatTargets, targets[step]...)
	}
	x := ws.take(t*batch, m.Cfg.Dim)
	tensor.GatherRows(x, m.InEmb, m.flatIDs)

	// RNN, dropout on its outputs (in place: the layer keeps its own), then
	// the projection over all timesteps at once.
	hs := m.rnn.forward(ws, x, batch)
	m.drop.Apply(hs)
	ps := m.proj.forward(ws, hs)

	res := StepResult{}
	var dp *tensor.Matrix
	if m.Cfg.Sampled > 0 && sampler != nil {
		out := sampledSoftmaxLoss(ws, ps, m.OutEmb, m.flatTargets, sampler, m.Cfg.Sampled)
		res.LossSum, res.Count = out.LossSum, out.Count
		dp = out.DH
		res.OutputGrad = core.SparseGrad{Indices: out.Candidates, Rows: out.DEmb}
	} else {
		lossSum, count, dh, dEmb := fullSoftmaxLoss(ws, ps, m.OutEmb, m.flatTargets, true)
		res.LossSum, res.Count = lossSum, count
		dp = dh
		if m.allIdx == nil {
			m.allIdx = make([]int, m.Cfg.Vocab)
			for i := range m.allIdx {
				m.allIdx[i] = i
			}
		}
		res.OutputGrad = core.SparseGrad{Indices: m.allIdx, Rows: dEmb}
	}

	// Backward through projection, dropout, RNN, embedding.
	dhs := m.proj.backward(ws, dp)
	m.drop.Backward(dhs)
	dx := m.rnn.backward(ws, dhs)
	res.InputGrad = core.SparseGrad{Indices: m.flatIDs, Rows: dx}
	return res
}

// EvalLoss computes the full-softmax cross-entropy (nats, summed) over a
// token stream without touching gradients — the validation perplexity of
// Figures 5, 7 and 8. The stream is chunked into length-seqLen sequences. It
// runs in the training workspace, so it ends the life of the last
// StepResult's gradients.
func (m *LM) EvalLoss(stream []int, seqLen int) (lossSum float64, count int) {
	if seqLen <= 0 {
		panic("model: seqLen must be positive")
	}
	// Borrow the RNN without disturbing training state; within the
	// evaluation the state carries across chunks so long-range context is
	// scored fairly.
	saved := m.rnn.SnapshotState()
	m.rnn.ResetState()
	defer m.rnn.RestoreState(saved)
	ws := &m.ws
	for lo := 0; lo+1 < len(stream); lo += seqLen {
		hi := lo + seqLen
		if hi+1 > len(stream) {
			hi = len(stream) - 1
		}
		if hi == lo {
			break
		}
		// One sequence of batch 1: token i's target is token i+1.
		ws.reset()
		x := ws.take(hi-lo, m.Cfg.Dim)
		tensor.GatherRows(x, m.InEmb, stream[lo:hi])
		p := m.proj.forward(ws, m.rnn.forward(ws, x, 1))
		l, c, _, _ := fullSoftmaxLoss(ws, p, m.OutEmb, stream[lo+1:hi+1], false)
		// Clear the projection's forward cache (no backward follows).
		m.proj.x = nil
		lossSum += l
		count += c
	}
	return lossSum, count
}

// ResetRNNState zeroes the carried recurrent state (used at epoch
// boundaries in stateful training).
func (m *LM) ResetRNNState() { m.rnn.ResetState() }

// RNGState returns the model's private RNG stream state (the dropout mask
// generator — the only stochastic consumer inside a training step). The
// checkpoint subsystem persists it per rank so a resumed run draws the
// exact masks the uninterrupted run would have drawn.
func (m *LM) RNGState() [4]uint64 { return m.drop.r.State() }

// SetRNGState restores a stream captured by RNGState.
func (m *LM) SetRNGState(s [4]uint64) { m.drop.r.SetState(s) }

// CarriedState is the serializable form of the stateful-training recurrent
// state (truncated-BPTT carry). A zero value (nil H) means "no carried
// state": the next forward pass starts from zeros.
type CarriedState struct {
	// H and C are the carried hidden/cell matrices in row-major order
	// (C is nil for RHN, which has no cell state).
	H, C []float32
	// Rows and Cols are the matrix shape (batch × hidden).
	Rows, Cols int
}

// CarriedRNNState exports the current carried recurrent state.
func (m *LM) CarriedRNNState() CarriedState {
	snap, _ := m.rnn.SnapshotState().(*carriedState)
	if snap == nil || snap.H == nil {
		return CarriedState{}
	}
	cs := CarriedState{
		H:    append([]float32(nil), snap.H.Data...),
		Rows: snap.H.Rows,
		Cols: snap.H.Cols,
	}
	if snap.C != nil {
		cs.C = append([]float32(nil), snap.C.Data...)
	}
	return cs
}

// SetCarriedRNNState restores a state exported by CarriedRNNState. A zero
// value clears the carry (equivalent to ResetRNNState).
func (m *LM) SetCarriedRNNState(cs CarriedState) error {
	if cs.H == nil {
		m.rnn.ResetState()
		return nil
	}
	if cs.Rows <= 0 || cs.Cols != m.Cfg.Hidden || len(cs.H) != cs.Rows*cs.Cols {
		return fmt.Errorf("model: carried state %d×%d does not match %d hidden values of width %d", cs.Rows, cs.Cols, len(cs.H), m.Cfg.Hidden)
	}
	if cs.C != nil && len(cs.C) != cs.Rows*cs.Cols {
		return fmt.Errorf("model: carried cell state has %d values, want %d", len(cs.C), cs.Rows*cs.Cols)
	}
	st := &carriedState{H: tensor.NewMatrix(cs.Rows, cs.Cols)}
	copy(st.H.Data, cs.H)
	if cs.C != nil {
		st.C = tensor.NewMatrix(cs.Rows, cs.Cols)
		copy(st.C.Data, cs.C)
	}
	m.rnn.RestoreState(st)
	return nil
}
