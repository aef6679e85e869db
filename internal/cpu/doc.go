// Package cpu probes the processor once, at start-up, for the instruction-set
// extensions the assembly kernels of tensor, half and optim are gated on.
// Each kernel keeps its own gate variable, initialised from one of these;
// that gate, not this package, is what tests clear.
package cpu
