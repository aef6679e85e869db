package model

import "zipflm/internal/tensor"

// workspace is a replica's training scratch: every activation, gradient and
// per-step view a forward/backward pass needs is carved from one arena, front
// to back, and the next pass carves the same storage again. A pass that
// outgrows the arena takes the excess from the heap and the next reset grows
// the arena by that much, so it is sized by the first pass of a shape, grows
// with the largest pass seen and never shrinks; from the second pass of a
// shape on, nothing here allocates.
//
// Matrices come back holding whatever the previous pass left there. Every
// taker either writes all of what it takes or clears it first (the
// accumulators the backward passes start from zero), which is what the
// different-T oracle tests hold it to.
//
// Everything handed out is dead at the next reset — including the matrices
// and index slices of the StepResult the pass returned.
type workspace struct {
	buf   []float32
	off   int              // floats of buf handed out this pass
	spill int              // floats this pass took from the heap instead
	mats  []*tensor.Matrix // headers, reused like the arena
	nm    int

	// candPos is the sampled softmax's candidate → column index, kept here so
	// its buckets are reused too.
	candPos map[int]int
}

// reset starts a new pass: everything taken before is free again.
func (w *workspace) reset() {
	if w.spill > 0 {
		w.buf = make([]float32, len(w.buf)+w.spill)
		w.spill = 0
	}
	w.off, w.nm = 0, 0
}

// take returns a rows×cols matrix with undefined contents.
func (w *workspace) take(rows, cols int) *tensor.Matrix {
	n := rows * cols
	if w.off+n > len(w.buf) {
		w.spill += n
		return w.header(rows, cols, make([]float32, n))
	}
	data := w.buf[w.off : w.off+n : w.off+n]
	w.off += n
	return w.header(rows, cols, data)
}

// zeros is take, cleared.
func (w *workspace) zeros(rows, cols int) *tensor.Matrix {
	m := w.take(rows, cols)
	m.Zero()
	return m
}

// rows returns a view of rows [lo, lo+n) of m: the per-step window onto a
// time-major slab.
func (w *workspace) rows(m *tensor.Matrix, lo, n int) *tensor.Matrix {
	return w.header(n, m.Cols, m.Data[lo*m.Cols:(lo+n)*m.Cols])
}

func (w *workspace) header(rows, cols int, data []float32) *tensor.Matrix {
	if w.nm == len(w.mats) {
		w.mats = append(w.mats, new(tensor.Matrix))
	}
	m := w.mats[w.nm]
	w.nm++
	*m = tensor.Matrix{Rows: rows, Cols: cols, Data: data}
	return m
}

// Time-major slabs. A sequence of T steps over B rows is held as one
// (T·B)×N matrix, a block of B rows per step, in one of two block orders:
//
//   - steps ascending (block t is step t): the order of everything that
//     enters or leaves a recurrent layer — its inputs, its outputs and their
//     gradients — because the consumers downstream accumulate in it: the
//     projection's weight gradient and the loss sum over the stacked outputs,
//     and the embedding exchange's local reduce over StepResult.InputGrad.
//   - steps descending (block k is step T−1−k): the order of the slabs a
//     layer keeps for itself. Backpropagation through time visits the steps
//     last to first and used to add each step's weight-gradient product
//     dzₜᵀ·xₜ into the accumulator as it went; MatMulATBAcc adds the rows of
//     its operands in ascending order and never reads dst in between, so one
//     call over slabs stacked in the order the loop visited them (steps
//     descending, batch rows ascending within a step) performs the same adds
//     in the same order. Stacking them ascending would regroup the float
//     adds and move low bits.
//
// reverseBlocks converts between the two.

// reverseBlocks copies src into dst with the order of its batch-row blocks
// reversed.
func reverseBlocks(dst, src *tensor.Matrix, batch int) {
	n := batch * src.Cols
	for lo := 0; lo < len(src.Data); lo += n {
		copy(dst.Data[len(src.Data)-lo-n:len(src.Data)-lo], src.Data[lo:lo+n])
	}
}
