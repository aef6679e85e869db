//go:build amd64

package tensor

import "zipflm/internal/cpu"

// useQdotAsm gates the AVX2 int8 kernels behind qdotRows (VPMOVSXBD on a YMM
// register is the AVX2 instruction; the rest is AVX). It is set once from
// CPUID; tests clear it to run the portable qdotGo on the same host, which is
// also what amd64 without AVX2 runs.
var useQdotAsm = cpu.AVX2

// useQdotAVX512 gates the ZMM tier of the int8 kernels, which qdotRows uses
// only where useQdotAsm is set too. It is set once from CPUID; tests clear it
// to run the AVX2 kernels on the same host.
var useQdotAVX512 = cpu.AVX512

// The kernels are qdotGo in assembly, one call per block of outputs,
// bit-identical by construction (TestQ8AsmMatchesGo). They take raw pointers:
// qdotRows bounds every operand first. The four-row routines take rows in
// [2, 4].

//go:noescape
func q8Rows4AVX512(dst *float32, dstStride int, a *float32, rows int, codes *int8, scales *float32, n, k, chunk int)

//go:noescape
func q8Rows1AVX512(dst, a *float32, codes *int8, scales *float32, n, k, chunk int)

//go:noescape
func q8Rows4AVX2(dst *float32, dstStride int, a *float32, rows int, codes *int8, scales *float32, n, k, chunk int)

//go:noescape
func q8Rows1AVX2(dst, a *float32, codes *int8, scales *float32, n, k, chunk int)
