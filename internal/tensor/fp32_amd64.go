//go:build amd64

package tensor

import "zipflm/internal/cpu"

// useFP32Asm gates the AVX kernels behind axpy, axpyRun, AddInPlace and the
// Dot family. It is set once from CPUID; tests clear it to run the portable
// kernels on the same host.
var useFP32Asm = cpu.AVX

// useFP32AVX512 gates the ZMM tier under the two hot kernel families,
// axpyRun and the Dot family, which use it only where useFP32Asm is set too.
// It is set once from CPUID; tests clear it to run the AVX kernels on the
// same host.
var useFP32AVX512 = cpu.AVX512

// The kernels below are the portable *Go functions of tensor.go in AVX
// assembly, bit-identical by construction (TestFP32AsmMatchesGo). They take
// raw pointers: the Go wrappers bound every operand first.

//go:noescape
func addAVX(dst, src *float32, n int)

//go:noescape
func axpyAVX(alpha float32, dst, src *float32, n int)

//go:noescape
func scaleAVX(x *float32, n int, alpha float32)

//go:noescape
func axpyRunAVX(dst *float32, n int, a *float32, astride int, b *float32, bstride, k int) int

// axpyRunAVX512 is axpyRunAVX over n columns, n a positive multiple of 64,
// sixteen lanes wide.
//
//go:noescape
func axpyRunAVX512(dst *float32, n int, a *float32, astride int, b *float32, bstride, k int) int

//go:noescape
func dotRows1AVX(dst *float32, n int, a, b *float32, k int)

//go:noescape
func dotRows2AVX(dst0, dst1 *float32, n int, a0, a1, b *float32, k int)

// dotRows4AVX512 is dotRows2AVX for four a rows, n a positive multiple of 8:
// dst[r*dstride+j] = Dot(a row r, b row j), four outputs to a ZMM register.
//
//go:noescape
func dotRows4AVX512(dst *float32, dstride, n int, a, b *float32, k int)

// allFiniteAVX is allFiniteGo over the first n elements, n a positive
// multiple of 8; the Go loop finishes the rest.
//
//go:noescape
func allFiniteAVX(x *float32, n int) bool

// maxAVX is maxGo over the first n elements, n a positive multiple of 8,
// except that a zero result may carry the other sign; rowMax finishes the
// rest and settles the zero.
//
//go:noescape
func maxAVX(x *float32, n int) float32
