//go:build !amd64

package tensor

// useFP32Asm: no assembly kernels on this architecture; the portable Go
// kernels, which define the canonical accumulation order, always run.
var useFP32Asm = false

// useFP32AVX512: no ZMM tier either.
var useFP32AVX512 = false

func addAVX(dst, src *float32, n int) { panic("tensor: addAVX unavailable on this architecture") }

func axpyAVX(alpha float32, dst, src *float32, n int) {
	panic("tensor: axpyAVX unavailable on this architecture")
}

func scaleAVX(x *float32, n int, alpha float32) {
	panic("tensor: scaleAVX unavailable on this architecture")
}

func axpyRunAVX(dst *float32, n int, a *float32, astride int, b *float32, bstride, k int) int {
	panic("tensor: axpyRunAVX unavailable on this architecture")
}

func axpyRunAVX512(dst *float32, n int, a *float32, astride int, b *float32, bstride, k int) int {
	panic("tensor: axpyRunAVX512 unavailable on this architecture")
}

func dotRows1AVX(dst *float32, n int, a, b *float32, k int) {
	panic("tensor: dotRows1AVX unavailable on this architecture")
}

func dotRows2AVX(dst0, dst1 *float32, n int, a0, a1, b *float32, k int) {
	panic("tensor: dotRows2AVX unavailable on this architecture")
}

func dotRows4AVX512(dst *float32, dstride, n int, a, b *float32, k int) {
	panic("tensor: dotRows4AVX512 unavailable on this architecture")
}

func allFiniteAVX(x *float32, n int) bool {
	panic("tensor: allFiniteAVX unavailable on this architecture")
}

func maxAVX(x *float32, n int) float32 {
	panic("tensor: maxAVX unavailable on this architecture")
}
