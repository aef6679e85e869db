//go:build !amd64

package cpu

// No assembly kernels exist for this architecture, so no feature is reported.
const (
	SSE41 = false
	AVX   = false
	F16C  = false
)
