package model

import (
	"fmt"

	"zipflm/internal/tensor"
)

// Batched inference. Training forwards whole sequences with backward caches;
// serving instead advances many independent sequences one token at a time.
// GenState makes a sequence's recurrent state an explicit, caller-owned
// value (so sequences can join and leave a batch freely — continuous
// batching), and Stepper runs one B×Dim forward step over a batch of states
// with zero allocation at steady state.
//
// The correctness contract the serving layer builds on: every kernel in the
// step path (MatMulABTStream, the per-element gate math, the projection and
// logits products) computes each batch row independently, with the same
// operations in the same order as a batch-1 step. A token generated for a
// request inside any batch is therefore bit-identical to the token the
// sequential Generate path produces for that request alone.

// GenState is one sequence's recurrent inference state (h and c for the
// LSTM, the highway state for the RHN). The zero state from NewGenState
// corresponds to the start of a fresh sequence.
type GenState struct {
	h []float32
	c []float32 // nil for RHN
}

// NewGenState returns a zeroed state for sequences of this model.
func (m *LM) NewGenState() *GenState {
	s := &GenState{h: make([]float32, m.Cfg.Hidden)}
	if m.Cfg.RNN == KindLSTM {
		s.c = make([]float32, m.Cfg.Hidden)
	}
	return s
}

// Clone returns an independent copy (the prefix cache snapshots post-prompt
// states with this).
func (s *GenState) Clone() *GenState {
	out := &GenState{h: append([]float32(nil), s.h...)}
	if s.c != nil {
		out.c = append([]float32(nil), s.c...)
	}
	return out
}

// Stepper advances batches of sequences through a model one token at a
// time. All scratch is allocated once at construction for the maximum batch
// size; Step itself performs zero heap allocations, which the
// TestGenerateAllocFlat guard enforces through Generate. A Stepper is not
// safe for concurrent use; the serving layer gives each worker its own.
type Stepper struct {
	m   *LM
	max int

	x, h, c *tensor.Matrix // B×Dim input, B×H state views
	p       *tensor.Matrix // B×Dim projection output
	logits  *tensor.Matrix // B×V
	s1, s2  *tensor.Matrix // recurrent scratch (LSTM: B×4H zx/zh; RHN: B×H zxh/zxt)
	s3, s4  *tensor.Matrix // RHN only: B×H zrh/zrt
	isLSTM  bool
	stepRNN func()
}

// NewStepper returns a Stepper able to advance up to maxBatch sequences per
// call.
func (m *LM) NewStepper(maxBatch int) *Stepper {
	if maxBatch <= 0 {
		panic("model: NewStepper needs a positive batch bound")
	}
	st := &Stepper{
		m:      m,
		max:    maxBatch,
		x:      tensor.NewMatrix(maxBatch, m.Cfg.Dim),
		h:      tensor.NewMatrix(maxBatch, m.Cfg.Hidden),
		p:      tensor.NewMatrix(maxBatch, m.Cfg.Dim),
		logits: tensor.NewMatrix(maxBatch, m.Cfg.Vocab),
	}
	switch rnn := m.rnn.(type) {
	case *LSTM:
		st.isLSTM = true
		st.c = tensor.NewMatrix(maxBatch, m.Cfg.Hidden)
		st.s1 = tensor.NewMatrix(maxBatch, 4*m.Cfg.Hidden)
		st.s2 = tensor.NewMatrix(maxBatch, 4*m.Cfg.Hidden)
		st.stepRNN = func() {
			rnn.stepInfer(st.x, st.h, st.c, st.s1, st.s2)
		}
	case *RHN:
		st.s1 = tensor.NewMatrix(maxBatch, m.Cfg.Hidden)
		st.s2 = tensor.NewMatrix(maxBatch, m.Cfg.Hidden)
		st.s3 = tensor.NewMatrix(maxBatch, m.Cfg.Hidden)
		st.s4 = tensor.NewMatrix(maxBatch, m.Cfg.Hidden)
		st.stepRNN = func() {
			rnn.stepInfer(st.x, st.h, st.s1, st.s2, st.s3, st.s4)
		}
	default:
		panic("model: unknown recurrent kind in NewStepper")
	}
	return st
}

// viewRows shrinks (or re-grows, within capacity) a scratch matrix to the
// current batch size.
func viewRows(m *tensor.Matrix, rows int) {
	m.Rows = rows
	m.Data = m.Data[:rows*m.Cols]
}

// stepCells advances the recurrent cell for a batch: gather embeddings and
// states, run the cell, scatter states back. st.h holds the new hidden rows
// when it returns.
func (st *Stepper) stepCells(ids []int, states []*GenState) {
	b := len(ids)
	if b == 0 || b > st.max {
		panic(fmt.Sprintf("model: Step batch %d outside [1, %d]", b, st.max))
	}
	if len(states) != b {
		panic("model: Step ids/states length mismatch")
	}
	m := st.m
	for i, id := range ids {
		if id < 0 || id >= m.Cfg.Vocab {
			panic(fmt.Sprintf("model: Step token %d outside vocabulary", id))
		}
		if len(states[i].h) != m.Cfg.Hidden || st.isLSTM != (states[i].c != nil) {
			panic("model: Step state does not match this model")
		}
	}

	viewRows(st.x, b)
	viewRows(st.h, b)
	viewRows(st.s1, b)
	viewRows(st.s2, b)
	if st.isLSTM {
		viewRows(st.c, b)
	} else {
		viewRows(st.s3, b)
		viewRows(st.s4, b)
	}

	// Gather: embedding rows and per-sequence states into the batch.
	tensor.GatherRows(st.x, m.InEmb, ids)
	for i, gs := range states {
		copy(st.h.Row(i), gs.h)
		if st.isLSTM {
			copy(st.c.Row(i), gs.c)
		}
	}

	st.stepRNN()

	// Scatter the advanced states back to their owners.
	for i, gs := range states {
		copy(gs.h, st.h.Row(i))
		if st.isLSTM {
			copy(gs.c, st.c.Row(i))
		}
	}
}

// Step feeds token ids[i] to the sequence whose state is states[i] (state
// updated in place) and returns the B×V next-token logits; Row(i) belongs
// to sequence i. The returned matrix is scratch owned by the Stepper — it
// is overwritten by the next Step, so sample from it (or copy it) first.
func (st *Stepper) Step(ids []int, states []*GenState) *tensor.Matrix {
	st.stepCells(ids, states)
	return st.logitsFor(st.h)
}

// StepEmitting is Step for a batch in which only some sequences draw a token
// this step — continuous batching, where a sequence still consuming its prompt
// rides along with the decoding ones. Every sequence's cell advances, but the
// projection and the V×D logits product — the bulk of a step — run only over
// the rows listed in emit (ascending batch indices), compacted: Row(j) of the
// result belongs to sequence emit[j]. It returns nil when emit is empty. Rows
// are independent in every kernel (see logitsFor), so Row(j) holds the bits
// Step's Row(emit[j]) would.
func (st *Stepper) StepEmitting(ids []int, states []*GenState, emit []int) *tensor.Matrix {
	st.stepCells(ids, states)
	if len(emit) == 0 {
		return nil
	}
	// The states went back to their owners, so st.h is free: compact it in
	// place. emit ascends, so emit[j] ≥ j and no row is overwritten before it
	// has moved.
	for j, i := range emit {
		if i < j || i >= len(ids) {
			panic("model: StepEmitting rows must be ascending batch indices")
		}
		if i != j {
			copy(st.h.Row(j), st.h.Row(i))
		}
	}
	viewRows(st.h, len(emit))
	return st.logitsFor(st.h)
}

// warm consumes toks with cell-only steps on one sequence: how a prompt is
// prefilled. The logits of a token that is not the prompt's last are never
// sampled, so computing them — P−1 projections and V×D products per request —
// would be work thrown away; the caller feeds the last token through Step.
func (st *Stepper) warm(toks []int, gs *GenState) {
	states := [1]*GenState{gs}
	for i := range toks {
		st.stepCells(toks[i:i+1], states[:])
	}
}

// logitsFor computes projection + output-embedding logits for R ≤ MaxBatch
// rows of hidden state, returning the R×V logits (Stepper-owned scratch,
// overwritten by the next call). Each row is computed independently with the
// batch-1 operation order, so Row(i) is bit-identical to the logits a
// single-sequence Step would produce from the same hidden state — the
// property that lets StepEmitting compact its rows.
func (st *Stepper) logitsFor(h *tensor.Matrix) *tensor.Matrix {
	if h.Rows == 0 || h.Rows > st.max {
		panic(fmt.Sprintf("model: logitsFor batch %d outside [1, %d]", h.Rows, st.max))
	}
	if h.Cols != st.m.Cfg.Hidden {
		panic("model: logitsFor hidden width does not match this model")
	}
	m := st.m
	viewRows(st.p, h.Rows)
	viewRows(st.logits, h.Rows)
	m.proj.ForwardInto(st.p, h)
	qmul(m.be, st.logits, st.p, m.OutEmb, m.qOutEmb)
	return st.logits
}
