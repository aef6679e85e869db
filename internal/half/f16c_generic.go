//go:build !amd64

package half

// useF16C: no assembly kernels on this architecture; RoundTrip and
// AddRoundTrip always run the portable loops.
var useF16C = false

func roundTripF16C(x *float32, n int, factor, inv float32) {
	panic("half: roundTripF16C unavailable on this architecture")
}

func addRoundTripF16C(dst, src *float32, n int, factor, inv float32) {
	panic("half: addRoundTripF16C unavailable on this architecture")
}
