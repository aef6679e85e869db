package serve

import (
	"runtime"
	"testing"

	"zipflm/internal/model"
	"zipflm/internal/sampling"
)

// The acceptance benchmark pair: the same model, the same closed-loop
// workload, caches off — only the batch bound changes. Batched serving must
// beat sequential single-stream tokens/s because every step streams the
// V×D output embedding (and the recurrent weights) once for the whole
// batch instead of once per sequence (tensor.MatMulABT).

func benchModel() *model.LM {
	return model.NewLM(model.Config{Vocab: 2000, Dim: 64, Hidden: 96, RNN: model.KindLSTM, Seed: 4})
}

func runServeBench(b *testing.B, maxBatch, clients int) {
	runServeBenchCompute(b, maxBatch, clients, 0)
}

// runServeBenchCompute additionally tiles each forward step's matmuls
// across computeWorkers goroutines (0: serial). Responses are bit-identical
// either way — the variants differ only in wall-clock, and on a
// single-core runner (GOMAXPROCS=1, the -N suffix in the benchmark name)
// they measure dispatch overhead rather than speedup.
func runServeBenchCompute(b *testing.B, maxBatch, clients, computeWorkers int) {
	m := benchModel()
	s := New(m, Config{MaxBatch: maxBatch, ComputeWorkers: computeWorkers, QueueDepth: 2 * clients})
	defer s.Close()
	b.ResetTimer()
	rep := RunLoad(s, LoadConfig{
		Clients:    clients,
		Requests:   b.N,
		PromptPool: 1 << 20, // effectively no repeats: measure generation, not caching
		Vocab:      m.Cfg.Vocab,
		Tokens:     16,
		Opts:       sampling.DecodeOpts{Temperature: 0.8},
		Seed:       1,
	})
	b.StopTimer()
	if rep.Completed != b.N {
		b.Fatalf("completed %d of %d", rep.Completed, b.N)
	}
	b.ReportMetric(float64(rep.TokensOut)/b.Elapsed().Seconds(), "tok/s")
	b.ReportMetric(s.Stats().MeanBatch, "batch")
}

// BenchmarkServeSequential is the single-stream baseline: one client, batch
// bound 1 — exactly the old model.Generate serving shape.
func BenchmarkServeSequential(b *testing.B) { runServeBench(b, 1, 1) }

// BenchmarkServeBatched8 coalesces 8 closed-loop clients into batches of up
// to 8.
func BenchmarkServeBatched8(b *testing.B) { runServeBench(b, 8, 8) }

// BenchmarkServeBatched16 doubles the pressure.
func BenchmarkServeBatched16(b *testing.B) { runServeBench(b, 16, 16) }

// BenchmarkServeBatched8Compute2 runs the batch-8 workload with each step's
// matmuls tiled across 2 goroutines.
func BenchmarkServeBatched8Compute2(b *testing.B) { runServeBenchCompute(b, 8, 8, 2) }

// BenchmarkServeBatched8Compute4 tiles across 4.
func BenchmarkServeBatched8Compute4(b *testing.B) { runServeBenchCompute(b, 8, 8, 4) }

// BenchmarkServeBatched8ComputeMax tiles across GOMAXPROCS.
func BenchmarkServeBatched8ComputeMax(b *testing.B) {
	runServeBenchCompute(b, 8, 8, runtime.GOMAXPROCS(0))
}

// --- Quantized serving ---
//
// The quantized acceptance pair: a model big enough that single-token decode
// is genuinely memory-bound (the V×D output embedding dominates, and its
// FP32 form far exceeds L2), served FP32 vs int8. Reading 4× fewer weight
// bytes per step must raise single-sequence tok/s — that is the whole case
// for Config.Quantized.

func quantBenchModel() *model.LM {
	return model.NewLM(model.Config{Vocab: 8000, Dim: 128, Hidden: 128, RNN: model.KindLSTM, Seed: 4})
}

func runQuantBench(b *testing.B, quantized bool, maxBatch, clients int) {
	m := quantBenchModel()
	s := New(m, Config{Quantized: quantized, MaxBatch: maxBatch, QueueDepth: 2 * clients})
	defer s.Close()
	b.ResetTimer()
	rep := RunLoad(s, LoadConfig{
		Clients:    clients,
		Requests:   b.N,
		PromptPool: 1 << 20,
		Vocab:      m.Cfg.Vocab,
		Tokens:     16,
		Opts:       sampling.DecodeOpts{Temperature: 0.8},
		Seed:       1,
	})
	b.StopTimer()
	if rep.Completed != b.N {
		b.Fatalf("completed %d of %d", rep.Completed, b.N)
	}
	b.ReportMetric(float64(rep.TokensOut)/b.Elapsed().Seconds(), "tok/s")
}

// BenchmarkServeQuantFP32Sequential is the FP32 single-sequence baseline on
// the memory-bound model.
func BenchmarkServeQuantFP32Sequential(b *testing.B) { runQuantBench(b, false, 1, 1) }

// BenchmarkServeQuantQ8Sequential serves the same workload on int8 weights —
// the leg that must win.
func BenchmarkServeQuantQ8Sequential(b *testing.B) { runQuantBench(b, true, 1, 1) }

// BenchmarkServeQuantFP32Batched8 / Q8Batched8: batching already amortizes
// the weight stream across sequences, so the q8 edge narrows — both views
// matter when sizing a deployment.
func BenchmarkServeQuantFP32Batched8(b *testing.B) { runQuantBench(b, false, 8, 8) }
func BenchmarkServeQuantQ8Batched8(b *testing.B)   { runQuantBench(b, true, 8, 8) }
