package trainer_test

import (
	"fmt"
	"log"
	"os"

	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/sampling"
	"zipflm/internal/trainer"
)

// ExampleTrainer_Run trains a small word LM on a synthetic Zipfian corpus
// across four simulated GPUs with the paper's unique exchange and Zipf's-
// frequency sampled-softmax seeding, and watches validation perplexity fall.
// The replicas end bit-identical: the §II-B invariant.
func ExampleTrainer_Run() {
	gen := corpus.NewGenerator(corpus.GeneratorConfig{VocabSize: 499, ZipfExponent: 1.2, Seed: 1})
	train, valid := corpus.Split(gen.Stream(60_000), 10, 100, 1)
	cfg := trainer.Config{
		Model:        model.Config{Vocab: 500, Dim: 24, Hidden: 32, RNN: model.KindLSTM, Sampled: 32},
		Ranks:        4,
		BatchPerRank: 2,
		SeqLen:       16,
		LR:           0.3,
		Exchange:     core.UniqueExchange{},
		SeedStrategy: sampling.ZipfFreq,
		BaseSeed:     1,
	}
	tr, err := trainer.New(cfg, train, valid)
	if err != nil {
		log.Fatal(err)
	}
	res, err := tr.Run(2, 2)
	if err != nil {
		log.Fatal(err)
	}
	for _, ev := range res.Evals {
		fmt.Printf("epoch %.1f: validation perplexity %.2f\n", ev.Epoch, ev.Perplexity)
	}
	fmt.Printf("per-rank exchange traffic: %.2f MB\n", float64(res.Stats.WireBytesPerRank)/1e6)
	fmt.Printf("avg unique words per step: %.0f input, %.0f output of %d tokens\n",
		res.Stats.AvgInputUnique(), res.Stats.AvgOutputUnique(), cfg.Ranks*cfg.BatchPerRank*cfg.SeqLen)
	if err := tr.ReplicasInSync(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("replicas in sync")
	// Output:
	// epoch 0.5: validation perplexity 106.59
	// epoch 1.0: validation perplexity 99.96
	// epoch 1.5: validation perplexity 93.68
	// epoch 2.0: validation perplexity 95.71
	// per-rank exchange traffic: 61.01 MB
	// avg unique words per step: 61 input, 99 output of 128 tokens
	// replicas in sync
}

// ExampleResume checkpoints every 20 steps, drops the trainer as a crash
// would, and resumes a fresh one from the directory: weights, Adam moments,
// step, learning-rate schedule and RNG streams come back from disk, so the
// resumed run ends exactly where the uninterrupted one does.
func ExampleResume() {
	gen := corpus.NewGenerator(corpus.GeneratorConfig{VocabSize: 199, ZipfExponent: 1.2, Seed: 7})
	train, valid := corpus.Split(gen.Stream(20_000), 10, 100, 7)
	dir, err := os.MkdirTemp("", "zipflm-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := trainer.Config{
		Model:        model.Config{Vocab: 200, Dim: 16, Hidden: 24, RNN: model.KindLSTM, Sampled: 16},
		Ranks:        4,
		BatchPerRank: 2,
		SeqLen:       10,
		LR:           0.1,
		LRDecay:      0.9,
		Exchange:     core.UniqueExchange{},
		SeedStrategy: sampling.ZipfFreq,
		NewOptimizer: func() optim.Optimizer { return optim.NewAdam(1e-5) },
		BaseSeed:     7,
	}
	const leg = 60

	full, err := trainer.New(cfg, train, valid)
	if err != nil {
		log.Fatal(err)
	}
	if err := full.Steps(2 * leg); err != nil {
		log.Fatal(err)
	}

	ck := cfg
	ck.CheckpointEvery = 20
	ck.CheckpointDir = dir
	crashing, err := trainer.New(ck, train, valid)
	if err != nil {
		log.Fatal(err)
	}
	if err := crashing.Steps(leg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("crashed at step %d after %d checkpoints\n", crashing.Step(), crashing.FaultStats().Checkpoints)

	resumed, err := trainer.Resume(ck, dir, train, valid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed at step %d\n", resumed.Step())
	if err := resumed.Steps(leg); err != nil {
		log.Fatal(err)
	}
	lossFull, lossResumed := full.Validate(), resumed.Validate()
	fmt.Printf("validation loss %.6f, equal to the uninterrupted run: %v\n", lossResumed, lossResumed == lossFull)
	// Output:
	// crashed at step 60 after 3 checkpoints
	// resumed at step 60
	// validation loss 4.141531, equal to the uninterrupted run: true
}
