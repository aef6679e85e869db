//go:build amd64

package tensor

import "zipflm/internal/cpu"

// useTransAsm gates the AVX2 kernels behind ExpSumRow, Tanh and Sigmoid (the
// exponent is rebuilt with 256-bit integer shifts and adds, which is AVX2;
// the rest is AVX). It is set once from CPUID; tests clear it to run the
// portable definitions on the same host, which is also what amd64 without
// AVX2 runs.
var useTransAsm = cpu.AVX2

// The kernels are exp32, tanh32 and sigmoid32 of trans.go eight lanes at a
// time, bit-identical by construction (TestTransAsmMatchesGo). n is a
// positive multiple of 8, the wrappers run the rest in Go; tab is transTab.

// expSumAVX2 is expSumGo over whole blocks of eight: dst[i] = exp32(src[i] −
// shift), returning the combined eight partial sums. dst advances by dstep
// bytes per block: 32 to keep the exponentials, 0 to drop them into one
// eight-float scratch.
//
//go:noescape
func expSumAVX2(dst, src *float32, n, dstep int, shift float32, tab *[transTabLen][8]uint32) float32

//go:noescape
func tanhAVX2(dst, src *float32, n int, tab *[transTabLen][8]uint32)

//go:noescape
func sigmoidAVX2(dst, src *float32, n int, tab *[transTabLen][8]uint32)
