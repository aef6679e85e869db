//go:build amd64

package tensor

import "zipflm/internal/cpu"

// useFP32Asm gates the AVX kernels behind axpy, axpyRun, AddInPlace and the
// Dot family. It is set once from CPUID; tests clear it to run the portable
// kernels on the same host.
var useFP32Asm = cpu.AVX

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

//go:noescape
func dotRows1AVX(dst *float32, n int, a, b *float32, k int)

//go:noescape
func dotRows2AVX(dst0, dst1 *float32, n int, a0, a1, b *float32, k int)

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
