package model

import "zipflm/internal/tensor"

// Quantized serving replicas. A trained checkpoint's weights are converted
// once — deterministically, round-to-nearest, a symmetric int8 grid scaled
// per chunk by its maxAbs/127 (tensor.QuantizeMatrix) — and the inference
// step path (Stepper, Generate, the serve batcher) switches to the int8
// kernels.
// Single-token RNN decode is memory-bandwidth bound, so 4× smaller weight
// reads are a direct tok/s multiplier; §IV-B's Zipf argument for the wire
// applies unchanged to the serving memory bus.
//
// Quantization shadows the FP32 weights rather than replacing them: training
// and evaluation paths (Forward/Backward/EvalLoss) keep full precision, and
// only the inference kernels consult the shadows. The input embedding stays
// FP32 — it is gathered, never multiplied, so quantizing it would cost
// accuracy and buy no bandwidth on the matmul path.

// qmul computes dst = x·Wᵀ on be: the quantized kernel when qw is non-nil,
// the FP32 one otherwise. Either kernel computes a row of x to the
// same bits whatever the batch around it, a batch of one included.
func qmul(be tensor.Backend, dst, x *tensor.Matrix, w *tensor.Matrix, qw *tensor.QMatrix) {
	if qw == nil {
		be.MatMulABT(dst, x, w)
		return
	}
	be.MatMulABTStreamQ8(dst, x, qw)
}

// quantizeWeights builds the Linear layer's int8 shadow.
func (l *Linear) quantizeWeights(chunk int) {
	l.qw = tensor.QuantizeMatrix(l.W, chunk)
}

// quantizeWeights builds the LSTM's int8 shadows (input and recurrent
// projections; biases stay FP32 — they are O(H), not worth a scale block).
func (l *LSTM) quantizeWeights(chunk int) {
	l.qwx = tensor.QuantizeMatrix(l.Wx, chunk)
	l.qwh = tensor.QuantizeMatrix(l.Wh, chunk)
}

// quantizeWeights builds the RHN's int8 shadows (input projections plus
// every micro-layer's recurrent pair).
func (l *RHN) quantizeWeights(chunk int) {
	l.qwh = tensor.QuantizeMatrix(l.Wh, chunk)
	l.qwt = tensor.QuantizeMatrix(l.Wt, chunk)
	l.qrh = make([]*tensor.QMatrix, l.Depth)
	l.qrt = make([]*tensor.QMatrix, l.Depth)
	for d := 0; d < l.Depth; d++ {
		l.qrh[d] = tensor.QuantizeMatrix(l.Rh[d], chunk)
		l.qrt[d] = tensor.QuantizeMatrix(l.Rt[d], chunk)
	}
}

// QuantizeWeights converts this replica's inference path to int8 weights in
// place: the RNN, the projection and the output embedding gain quantized
// shadows that Stepper/Generate use from now on. Quantization is a pure
// function of the FP32 weights (round-to-nearest, tensor.DefaultQChunk-sized
// scale blocks), so a given checkpoint always yields the same q8 bytes.
// Training and evaluation are unaffected.
func (m *LM) QuantizeWeights() {
	m.qOutEmb = tensor.QuantizeMatrix(m.OutEmb, 0)
	m.proj.quantizeWeights(0)
	m.rnn.quantizeWeights(0)
}

// Quantize returns a new serving replica with this model's weights and a
// quantized inference path. The receiver is untouched, so a process can keep
// the FP32 model for evaluation while serving from the q8 copy.
func (m *LM) Quantize() *LM {
	q := m.Clone()
	q.QuantizeWeights()
	return q
}
