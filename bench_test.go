package zipflm

// One benchmark per table and figure of the paper's evaluation (§V). Each
// bench regenerates the corresponding artifact end to end through the
// experiments harness — the same code `zipflm-bench -exp <id>` runs — so
// `go test -bench=.` doubles as a smoke-reproduction of the entire
// evaluation. Training-based artifacts run in Quick mode to keep bench
// iterations bounded; run `zipflm-bench` (without -quick) for the
// full-fidelity numbers. The quick reports themselves are pinned byte for
// byte by TestTablesLedger in internal/experiments.

import (
	"testing"

	"zipflm/internal/collective"
	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/experiments"
	"zipflm/internal/model"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
	"zipflm/internal/tensor"
	"zipflm/internal/trainer"
)

// benchExperiment runs one experiment id per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	opts := experiments.Options{Quick: true, Seed: 42}
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// BenchmarkFig1TypeToken regenerates Figure 1 (types vs tokens, U ∝ N^0.64).
func BenchmarkFig1TypeToken(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkTable1Datasets regenerates Table I (dataset catalog + stand-ins).
func BenchmarkTable1Datasets(b *testing.B) { benchExperiment(b, "tab1") }

// BenchmarkTable3WordLMScaling regenerates Table III (word-LM epoch hours,
// parallel efficiency, baseline OOM at 32 GPUs).
func BenchmarkTable3WordLMScaling(b *testing.B) { benchExperiment(b, "tab3") }

// BenchmarkTable4CharLMScaling regenerates Table IV (char-LM epoch hours).
func BenchmarkTable4CharLMScaling(b *testing.B) { benchExperiment(b, "tab4") }

// BenchmarkTable5TiebaWeakScaling regenerates Table V (6→192 GPU weak
// scaling: time model plus real scaled-down training).
func BenchmarkTable5TiebaWeakScaling(b *testing.B) { benchExperiment(b, "tab5") }

// BenchmarkWeakScaleOnline regenerates the online virtual-clock weak-scaling
// sweep (baseline vs unique predicted step time).
func BenchmarkWeakScaleOnline(b *testing.B) { benchExperiment(b, "weakscale") }

// BenchmarkFig5WordLMAccuracy regenerates Figure 5 (word-LM perplexity vs
// epoch across cluster sizes; real training).
func BenchmarkFig5WordLMAccuracy(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6SpeedupBreakdown regenerates Figure 6 (cumulative speedup of
// uniqueness/seeding/compression at 16 and 24 GPUs).
func BenchmarkFig6SpeedupBreakdown(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7SeedingAccuracy regenerates Figure 7 (seeding strategies vs
// accuracy; real training under every strategy).
func BenchmarkFig7SeedingAccuracy(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8CharLMAccuracy regenerates Figure 8 (char-LM perplexity vs
// epoch across cluster sizes; real training).
func BenchmarkFig8CharLMAccuracy(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkMemoryFootprint regenerates the §V-A/§III-A memory narrative
// (baseline linear growth + OOM vs flat ~1.2 GB; 35.2 GB → 0.137 GB example).
func BenchmarkMemoryFootprint(b *testing.B) { benchExperiment(b, "mem") }

// BenchmarkBPCComparison regenerates the §V-D bits-per-character comparison.
func BenchmarkBPCComparison(b *testing.B) { benchExperiment(b, "bpc") }

// BenchmarkAblationFP16Scaling regenerates the compression-scaling sweep.
func BenchmarkAblationFP16Scaling(b *testing.B) { benchExperiment(b, "abl-fp16") }

// BenchmarkAblationSeeding regenerates the seeding-strategy U_g sweep.
func BenchmarkAblationSeeding(b *testing.B) { benchExperiment(b, "abl-seed") }

// BenchmarkAblationSampler regenerates the candidate-distribution ablation.
func BenchmarkAblationSampler(b *testing.B) { benchExperiment(b, "abl-sampler") }

// --- Micro-benchmarks of the core exchange engines themselves, so the
// --- asymptotic difference is visible in ns/op and B/op, not just in the
// --- modeled tables.

func benchExchange(b *testing.B, ex core.Exchanger, g, k, d, vocab int) {
	b.Helper()
	grads := make([]core.SparseGrad, g)
	root := rng.New(1)
	for r := 0; r < g; r++ {
		rr := root.Fork()
		z := rng.NewZipf(rr, vocab, 1.2)
		idx := make([]int, k)
		for i := range idx {
			idx[i] = z.Next()
		}
		rows := tensor.NewMatrix(k, d)
		rows.RandomizeNormal(rr, 1)
		grads[r] = core.SparseGrad{Indices: idx, Rows: rows}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runExchangeOnce(b, ex, grads)
	}
}

func runExchangeOnce(b *testing.B, ex core.Exchanger, grads []core.SparseGrad) {
	b.Helper()
	g := len(grads)
	comm := newComm(g)
	done := make(chan error, g)
	for r := 0; r < g; r++ {
		go func(rank int) {
			ctx := &core.Ctx{Rank: rank, Comm: comm}
			_, _, err := ex.Exchange(ctx, grads[rank])
			done <- err
		}(r)
	}
	for r := 0; r < g; r++ {
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExchangeBaseline8x256 measures the Θ(G·K·D) baseline engine.
func BenchmarkExchangeBaseline8x256(b *testing.B) {
	benchExchange(b, core.BaselineAllGather{}, 8, 256, 64, 1000)
}

// BenchmarkExchangeUnique8x256 measures the Θ(G·K + U_g·D) unique engine on
// the same workload.
func BenchmarkExchangeUnique8x256(b *testing.B) {
	benchExchange(b, core.UniqueExchange{}, 8, 256, 64, 1000)
}

// newComm is a local alias so the benches read naturally.
func newComm(g int) *collective.Comm { return collective.New(g) }

// --- Step benchmarks over the full training loop, in the regime the
// --- paper's techniques target: communication and synchronization overhead
// --- comparable to compute (small per-rank batch, non-trivial dense
// --- parameter volume). BenchmarkStepSync8 vs BenchmarkStepOverlap8 is the
// --- synchronous-vs-overlapped comparison; both run on the pooled
// --- collective substrate.

// benchStep times full training steps at the given rank count.
func benchStep(b *testing.B, ranks int, overlap bool) {
	b.Helper()
	gen := corpus.NewGenerator(corpus.GeneratorConfig{
		VocabSize:    999,
		ZipfExponent: 1.1,
		Seed:         42,
	})
	stream := gen.Stream(ranks*4000 + 1000)
	train, valid := corpus.Split(stream, 50, 100, 42)
	cfg := trainer.Config{
		Model: model.Config{
			Vocab: 1000, Dim: 64, Hidden: 256, RNN: model.KindLSTM, Sampled: 64,
		},
		Ranks:        ranks,
		BatchPerRank: 1,
		SeqLen:       4,
		LR:           0.1,
		Exchange:     core.UniqueExchange{},
		SeedStrategy: sampling.ZipfFreq,
		BaseSeed:     42,
		Overlap:      overlap,
	}
	tr, err := trainer.New(cfg, train, valid)
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.Steps(2); err != nil { // warm pools and caches
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := tr.Steps(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStepSync8 is one synchronous training step at G=8: backprop,
// then per-tensor dense ring all-reduce, then the sparse exchange.
func BenchmarkStepSync8(b *testing.B) { benchStep(b, 8, false) }

// BenchmarkStepOverlap8 is the same step with the dense reduction issued
// per layer, priced as overlapping backprop and the sparse exchange.
func BenchmarkStepOverlap8(b *testing.B) { benchStep(b, 8, true) }

// BenchmarkStepSync2 / BenchmarkStepOverlap2 pin the small-cluster end.
func BenchmarkStepSync2(b *testing.B) { benchStep(b, 2, false) }

// BenchmarkStepOverlap2 is the overlapped counterpart of BenchmarkStepSync2.
func BenchmarkStepOverlap2(b *testing.B) { benchStep(b, 2, true) }

// BenchmarkOverlapExperiment regenerates the overlap ablation table like
// the other experiment benches.
func BenchmarkOverlapExperiment(b *testing.B) { benchExperiment(b, "overlap") }
