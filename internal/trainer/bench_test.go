package trainer

import (
	"testing"

	"zipflm/internal/core"
	"zipflm/internal/model"
	"zipflm/internal/sampling"
)

// runStepBench measures full training steps (forward, backward, exchange,
// optimizer) of one rank, sized so the softmax and recurrent matmuls
// dominate. The replica computes on the serial kernels; the step's pool has
// one worker per core.
func runStepBench(b *testing.B) {
	train, valid := smallData(1000, 30000, 21)
	cfg := Config{
		Model:        model.Config{Vocab: 1000, Dim: 64, Hidden: 96, RNN: model.KindLSTM},
		Ranks:        1,
		BatchPerRank: 4,
		SeqLen:       12,
		LR:           0.1,
		Exchange:     core.UniqueExchange{},
		SeedStrategy: sampling.AllDifferent,
		BaseSeed:     3,
	}
	tr, err := New(cfg, train, valid)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := tr.Steps(b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	tokens := float64(b.N) * float64(cfg.Ranks*cfg.BatchPerRank*cfg.SeqLen)
	b.ReportMetric(tokens/b.Elapsed().Seconds(), "tok/s")
}

// BenchmarkStepWorkers1 measures a training step. The name predates the
// removal of tiled replicas; it is kept so BENCH_step.json's rows still
// compare.
func BenchmarkStepWorkers1(b *testing.B) { runStepBench(b) }
