package zipflm

// End-to-end integration: the full library workflow a downstream user runs —
// synthesize a corpus, train across simulated ranks with every §III
// optimization enabled, checkpoint, reload, and generate — in one test.

import (
	"bytes"
	"math"
	"testing"

	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/half"
	"zipflm/internal/model"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
	"zipflm/internal/trainer"
)

func TestEndToEndWorkflow(t *testing.T) {
	// 1. Corpus with learnable structure.
	gen := corpus.NewMarkovGenerator(corpus.MarkovConfig{
		VocabSize:    149,
		Branching:    8,
		ZipfExponent: 1.1,
		Seed:         99,
	})
	train, valid := corpus.Split(gen.Stream(30_000), 10, 50, 99)

	// 2. Distributed training with the full optimization stack: unique
	// exchange, Zipf's-freq seeding, FP16 wire, stateful BPTT, dropout,
	// LR decay.
	cfg := trainer.Config{
		Model: model.Config{
			Vocab: 150, Dim: 12, Hidden: 16,
			RNN: model.KindLSTM, Sampled: 16,
			Stateful: true, Dropout: 0.05,
		},
		Ranks:        4,
		BatchPerRank: 2,
		SeqLen:       10,
		LR:           0.3,
		LRDecay:      0.9,
		ClipNorm:     1.0,
		Exchange:     core.UniqueExchange{},
		Wire:         half.NewScaler(512),
		SeedStrategy: sampling.ZipfFreq,
		BaseSeed:     99,
	}
	tr, err := trainer.New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.Evals[0].Loss {
		t.Errorf("full-stack training did not improve: %v -> %v", res.Evals[0].Loss, res.FinalLoss)
	}
	if err := tr.ReplicasInSync(); err != nil {
		t.Fatal(err)
	}
	if res.Stats.WireBytesPerRank <= 0 || res.Stats.ComputeTime <= 0 || res.Stats.SyncTime <= 0 {
		t.Error("run statistics incomplete")
	}

	// 3. Checkpoint round trip.
	var buf bytes.Buffer
	if err := tr.Model(0).Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := model.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Score(valid, 10); math.Abs(got-res.FinalLoss) > 1e-6 {
		t.Errorf("restored model scores %v, trainer reported %v", got, res.FinalLoss)
	}

	// 4. Generation from the restored model.
	out := m.Generate(train[:4], 12, 0.8, rng.New(3))
	if len(out) != 12 {
		t.Fatalf("generated %d tokens", len(out))
	}
	for _, id := range out {
		if id < 0 || id >= cfg.Model.Vocab {
			t.Fatalf("generated id %d outside vocabulary", id)
		}
	}
}
