//go:build amd64

package half

import "zipflm/internal/cpu"

// useF16C gates the F16C kernel behind Scaler.RoundTrip. It is set once from
// CPUID; tests clear it to run the portable loop on the same host.
var useF16C = cpu.F16C

// roundTripF16C is roundTripGo over x[0:n], n a positive multiple of 8.
//
//go:noescape
func roundTripF16C(x *float32, n int, factor, inv float32)
