package main

import (
	"math"
	"time"
)

// The host probe is a fixed amount of single-threaded floating-point work
// over a working set that fits the L2 cache. It belongs to the benchmark, not
// to the program, so no change to the program moves it. probeNominal is what
// it takes on the reference host when nothing disturbs it.
const (
	probeLen     = 16 << 10 // float32s per vector: two vectors are 128 KiB
	probeReps    = 4300
	probeNominal = 30 * time.Millisecond
)

var (
	probeA, probeB = probeVectors()
	probeSink      float32
)

func probeVectors() (a, b []float32) {
	a, b = make([]float32, probeLen), make([]float32, probeLen)
	for i := range a {
		a[i], b[i] = float32(i%7)*0.25, float32(i%5)*0.5
	}
	return a, b
}

// programExponent turns the probe's slowdown into the program's: when the
// host runs the probe's tight loop f times slower it runs the program's mix
// of kernels, memory traffic, goroutine hand-offs and idle waits about f^0.8
// times slower. Regressing run medians on the run's mean probe factor gave
// exponents from 0.5 (train_char_comm, mostly sync) to 1.1 (serve_decode_closed,
// mostly kernels); over 20-30 runs per workload 0.8 gave the smallest spread on
// all four workloads at once, and 1.0 over-corrected the sync-heavy one by 20%
// whenever the host was 1.7x slow.
const programExponent = 0.8

// hostSlowdown runs the probe and returns how many times slower than on the
// undisturbed reference host the program is running now. On this shared host
// the same pure-CPU work takes up to 3x longer for stretches of seconds to
// minutes, with no steal reported, and the program's own work slows with it;
// every timed interval of a run is therefore bracketed by two probes and
// divided by the mean of their readings (README.md, "Steadiness").
func hostSlowdown() float64 {
	t0 := time.Now()
	var s0, s1, s2, s3 float32
	a, b := probeA, probeB
	for r := 0; r < probeReps; r++ {
		for i := 0; i+4 <= len(a); i += 4 {
			s0 += a[i] * b[i]
			s1 += a[i+1] * b[i+1]
			s2 += a[i+2] * b[i+2]
			s3 += a[i+3] * b[i+3]
		}
	}
	probeSink = s0 + s1 + s2 + s3
	return math.Pow(float64(time.Since(t0))/float64(probeNominal), programExponent)
}
