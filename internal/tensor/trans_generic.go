//go:build !amd64

package tensor

// useTransAsm: no assembly kernels on this architecture; the portable
// definitions of trans.go always run.
var useTransAsm = false

func expSumAVX2(dst, src *float32, n, dstep int, shift float32, tab *[transTabLen][8]uint32) float32 {
	panic("tensor: expSumAVX2 unavailable on this architecture")
}

func tanhAVX2(dst, src *float32, n int, tab *[transTabLen][8]uint32) {
	panic("tensor: tanhAVX2 unavailable on this architecture")
}

func sigmoidAVX2(dst, src *float32, n int, tab *[transTabLen][8]uint32) {
	panic("tensor: sigmoidAVX2 unavailable on this architecture")
}
