package model

import "zipflm/internal/tensor"

// Stateful training support. Real LM training feeds each batch lane a
// contiguous slice of the corpus and carries the RNN state across batches
// (truncated BPTT): gradients stop at the batch boundary but the forward
// state flows on, so the model can exploit context longer than one
// sequence. The recurrent layers implement this with a carried-state flag:
//
//	layer.SetCarry(true)
//	out1 := layer.forward(ws, batch1, b) // from zero state
//	out2 := layer.forward(ws, batch2, b) // from batch1's final state (detached)
//
// backward never propagates into the carried state — the standard
// truncation. ResetState returns to a zero initial state (used at epoch
// boundaries); Snapshot/Restore let evaluation borrow the layer without
// disturbing training state.

// carriedState is the detached recurrent state shared by LSTM (h and c) and
// RHN (s only; C stays nil).
type carriedState struct {
	H, C *tensor.Matrix
}

func cloneMat(m *tensor.Matrix) *tensor.Matrix {
	if m == nil {
		return nil
	}
	return m.Clone()
}

// clone deep-copies the state.
func (s *carriedState) clone() *carriedState {
	if s == nil {
		return nil
	}
	return &carriedState{H: cloneMat(s.H), C: cloneMat(s.C)}
}

// SetCarry enables or disables state carry-over on the LSTM. Disabling also
// clears any held state.
func (l *LSTM) SetCarry(on bool) {
	l.carry = on
	if !on {
		l.carried = nil
	}
}

// ResetState zeroes the carried state (the next forward starts fresh).
func (l *LSTM) ResetState() { l.carried = nil }

// SnapshotState returns an opaque copy of the carried state.
func (l *LSTM) SnapshotState() any { return l.carried.clone() }

// RestoreState reinstates a state from SnapshotState.
func (l *LSTM) RestoreState(s any) {
	if s == nil {
		l.carried = nil
		return
	}
	l.carried = s.(*carriedState).clone()
}

// SetCarry enables or disables state carry-over on the RHN.
func (l *RHN) SetCarry(on bool) {
	l.carry = on
	if !on {
		l.carried = nil
	}
}

// ResetState zeroes the carried state.
func (l *RHN) ResetState() { l.carried = nil }

// SnapshotState returns an opaque copy of the carried state.
func (l *RHN) SnapshotState() any { return l.carried.clone() }

// RestoreState reinstates a state from SnapshotState.
func (l *RHN) RestoreState(s any) {
	if s == nil {
		l.carried = nil
		return
	}
	l.carried = s.(*carriedState).clone()
}

// initialState fills h0 (and c0, nil for the RHN) with the state a forward
// pass starts from: the carried state when enabled and shape-compatible,
// zeros otherwise.
func initialState(carry bool, carried *carriedState, h0, c0 *tensor.Matrix) {
	h0.Zero()
	if c0 != nil {
		c0.Zero()
	}
	if carry && carried != nil && carried.H != nil && carried.H.Rows == h0.Rows && carried.H.Cols == h0.Cols {
		copy(h0.Data, carried.H.Data)
		if c0 != nil && carried.C != nil {
			copy(c0.Data, carried.C.Data)
		}
	}
}

// detach copies a pass's final state (c nil for the RHN) out of the workspace
// for the next pass to start from, into carried's own storage when the shape
// repeats.
func detach(carried *carriedState, h, c *tensor.Matrix) *carriedState {
	if carried == nil || carried.H == nil || carried.H.Rows != h.Rows || carried.H.Cols != h.Cols ||
		(carried.C == nil) != (c == nil) {
		return &carriedState{H: h.Clone(), C: cloneMat(c)}
	}
	copy(carried.H.Data, h.Data)
	if c != nil {
		copy(carried.C.Data, c.Data)
	}
	return carried
}
