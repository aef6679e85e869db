//go:build !amd64

package cpu

// No assembly kernels exist for this architecture, so no feature is reported.
const (
	AVX    = false
	F16C   = false
	AVX2   = false
	AVX512 = false
)
