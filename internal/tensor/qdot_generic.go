//go:build !amd64

package tensor

// useQdotAsm: no assembly kernels on this architecture; the portable qdotGo,
// which defines the canonical accumulation order, always runs.
var useQdotAsm = false

// useQdotAVX512: no ZMM tier either.
var useQdotAVX512 = false

func q8Rows4AVX512(dst *float32, dstStride int, a *float32, rows int, codes *int8, scales *float32, n, k, chunk int) {
	panic("tensor: q8Rows4AVX512 unavailable on this architecture")
}

func q8Rows1AVX512(dst, a *float32, codes *int8, scales *float32, n, k, chunk int) {
	panic("tensor: q8Rows1AVX512 unavailable on this architecture")
}

func q8Rows4AVX2(dst *float32, dstStride int, a *float32, rows int, codes *int8, scales *float32, n, k, chunk int) {
	panic("tensor: q8Rows4AVX2 unavailable on this architecture")
}

func q8Rows1AVX2(dst, a *float32, codes *int8, scales *float32, n, k, chunk int) {
	panic("tensor: q8Rows1AVX2 unavailable on this architecture")
}
