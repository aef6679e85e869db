// Package cpu probes the processor once, at start-up, for the instruction-set
// extensions the assembly kernels of tensor, half and optim are gated on:
// AVX, F16C, AVX2 and AVX512 (F, BW and VL, behind tensor's ZMM tier of the
// FP32 kernels). Each kernel keeps its own gate variable, initialised from
// one of these; that gate, not this package, is what tests clear.
package cpu
