//go:build amd64

package half

import "zipflm/internal/cpu"

// useF16C gates the F16C kernels behind Scaler.RoundTrip and AddRoundTrip. It is set once from
// CPUID; tests clear it to run the portable loop on the same host.
var useF16C = cpu.F16C

// roundTripF16C is roundTripGo over x[0:n], n a positive multiple of 8.
//
//go:noescape
func roundTripF16C(x *float32, n int, factor, inv float32)

// addRoundTripF16C is addRoundTripGo over dst[0:n] and src[0:n], n a
// positive multiple of 8.
//
//go:noescape
func addRoundTripF16C(dst, src *float32, n int, factor, inv float32)
