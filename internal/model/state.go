package model

import (
	"fmt"
	"slices"

	"zipflm/internal/tensor"
)

// Stateful training support. Real LM training feeds each batch lane a
// contiguous slice of the corpus and carries the RNN state across batches
// (truncated BPTT): gradients stop at the batch boundary but the forward
// state flows on, so the model can exploit context longer than one
// sequence. LSTM and RHN each embed a carry, switched on once from
// Config.Stateful: a forward pass starts from its state and leaves its final
// state there (detached: backward never propagates into it).
//
// CarriedState is the only form that state takes, in the layer, in
// CarriedRNNState's copies and in a checkpoint. The zero value means "no
// carried state": the next forward starts from zeros, as it does after
// ResetRNNState at an epoch boundary. EvalLoss borrows the layer by moving
// the value out and back.

// CarriedState is a recurrent layer's carried state (truncated-BPTT carry).
// A zero value (nil H) means no carried state.
type CarriedState struct {
	// H and C are the carried hidden/cell matrices in row-major order
	// (C is nil for RHN, which has no cell state).
	H, C []float32
	// Rows and Cols are the matrix shape (batch × hidden).
	Rows, Cols int
}

// clone deep-copies the state.
func (s CarriedState) clone() CarriedState {
	s.H, s.C = slices.Clone(s.H), slices.Clone(s.C)
	return s
}

// carry is the stateful-training part of a recurrent layer.
type carry struct {
	on    bool
	state CarriedState
}

// carried gives the model its layer's carry.
func (k *carry) carried() *carry { return k }

// start fills h0 (and c0, nil for the RHN) with the state a forward pass
// starts from: the carried state when on and of h0's shape, zeros otherwise.
func (k *carry) start(h0, c0 *tensor.Matrix) {
	h0.Zero()
	if c0 != nil {
		c0.Zero()
	}
	if s := &k.state; k.on && s.Rows == h0.Rows && s.Cols == h0.Cols {
		copy(h0.Data, s.H)
		if c0 != nil {
			copy(c0.Data, s.C)
		}
	}
}

// keep copies a pass's final state (c nil for the RHN) out of the workspace
// for the next pass to start from, into the state's own slices when the
// shape repeats.
func (k *carry) keep(h, c *tensor.Matrix) {
	s := &k.state
	if s.Rows != h.Rows || s.Cols != h.Cols || (s.C == nil) != (c == nil) {
		*s = CarriedState{H: make([]float32, len(h.Data)), Rows: h.Rows, Cols: h.Cols}
		if c != nil {
			s.C = make([]float32, len(c.Data))
		}
	}
	copy(s.H, h.Data)
	if c != nil {
		copy(s.C, c.Data)
	}
}

// ResetRNNState zeroes the carried recurrent state (used at epoch
// boundaries in stateful training).
func (m *LM) ResetRNNState() { m.rnn.carried().state = CarriedState{} }

// CarriedRNNState returns a copy of the carried recurrent state.
func (m *LM) CarriedRNNState() CarriedState { return m.rnn.carried().state.clone() }

// SetCarriedRNNState installs a copy of a state exported by CarriedRNNState.
// The zero value clears the carry (as ResetRNNState does). Any other value
// must be Rows × Hidden, with a cell state exactly when the layer is an
// LSTM: a state that could not be restored exactly is refused.
func (m *LM) SetCarriedRNNState(cs CarriedState) error {
	if cs.H != nil || cs.C != nil || cs.Rows != 0 || cs.Cols != 0 {
		n := cs.Rows * cs.Cols
		if cs.Rows <= 0 || cs.Cols != m.Cfg.Hidden || len(cs.H) != n {
			return fmt.Errorf("model: carried state %d×%d does not match %d hidden values of width %d", cs.Rows, cs.Cols, len(cs.H), m.Cfg.Hidden)
		}
		wantC := 0 // an RHN has no cell state
		if m.Cfg.RNN == KindLSTM {
			wantC = n
		}
		if len(cs.C) != wantC || (cs.C == nil) != (wantC == 0) {
			return fmt.Errorf("model: carried cell state has %d values, want %d", len(cs.C), wantC)
		}
	}
	m.rnn.carried().state = cs.clone()
	return nil
}
