//go:build amd64

package tensor

import "zipflm/internal/cpu"

// useQdotAsm gates the SSE4.1 qdot kernel. PMOVSXBD (int8→int32 in
// registers) is the one instruction past the amd64 baseline, so the gate is
// a CPUID check; everything else in the kernel is SSE2.
var useQdotAsm = cpu.SSE41

// qdotSSE41 is qdotGo in SSE4.1 assembly: the same sixteen partials (four
// vector accumulators), the same combine tree, the same sequential tail and
// per-chunk scaling — bit-identical by construction, four lanes per cycle in
// practice. n is len(codes); a must hold at least n elements and scales one
// per chunk.
func qdotSSE41(a *float32, codes *int8, scales *float32, n, chunk int) float32
