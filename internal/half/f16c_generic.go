//go:build !amd64

package half

// useF16C: no assembly kernel on this architecture; RoundTrip always runs
// the portable roundTripGo.
var useF16C = false

func roundTripF16C(x *float32, n int, factor, inv float32) {
	panic("half: roundTripF16C unavailable on this architecture")
}
