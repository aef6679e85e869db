package trainer

import (
	"math"
	"strings"
	"testing"
	"time"

	"zipflm/internal/collective"
	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/perfmodel"
	"zipflm/internal/sampling"
)

// markovData builds a learnable train/valid pair.
func markovData(vocab, n int, seed uint64) (train, valid []int) {
	g := corpus.NewMarkovGenerator(corpus.MarkovConfig{
		VocabSize:    vocab - 1,
		Branching:    8,
		ZipfExponent: 1.1,
		Seed:         seed,
	})
	return corpus.Split(g.Stream(n), 10, 50, seed)
}

func TestStatefulTrainingConvergesAndSyncs(t *testing.T) {
	train, valid := markovData(80, 10_000, 1)
	cfg := smallConfig(2, core.UniqueExchange{})
	cfg.Model.Vocab = 80
	cfg.Model.Stateful = true
	cfg.ClipNorm = 1.0
	tr, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.Evals[0].Loss {
		t.Errorf("stateful training did not improve: %v -> %v", res.Evals[0].Loss, res.FinalLoss)
	}
	if err := tr.ReplicasInSync(); err != nil {
		t.Error(err)
	}
}

// TestStatefulBeatsStatelessOnStructuredData: on a Markov corpus with
// context value, carrying state across batches should not hurt and usually
// helps. We assert the weaker invariant (within 10% or better) to avoid
// flaky strictness.
func TestStatefulVsStateless(t *testing.T) {
	train, valid := markovData(80, 12_000, 2)
	run := func(stateful bool) float64 {
		cfg := smallConfig(2, core.UniqueExchange{})
		cfg.Model.Vocab = 80
		cfg.Model.Stateful = stateful
		cfg.ClipNorm = 1.0
		tr, err := New(cfg, train, valid)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalLoss
	}
	withState := run(true)
	without := run(false)
	if withState > without*1.1 {
		t.Errorf("stateful loss %v much worse than stateless %v", withState, without)
	}
}

func TestDropoutTrainingSyncs(t *testing.T) {
	train, valid := markovData(80, 8_000, 3)
	cfg := smallConfig(3, core.UniqueExchange{})
	cfg.Model.Vocab = 80
	cfg.Model.Dropout = 0.2
	tr, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.FinalLoss) {
		t.Fatal("dropout training produced NaN")
	}
	// The §II-B invariant must survive dropout: masks are seeded
	// identically on every replica.
	if err := tr.ReplicasInSync(); err != nil {
		t.Error(err)
	}
}

func TestUnigramSamplerTraining(t *testing.T) {
	train, valid := markovData(100, 9_000, 4)
	cfg := smallConfig(2, core.UniqueExchange{})
	cfg.Model.Vocab = 100
	cfg.Model.Sampled = 16
	cfg.SeedStrategy = sampling.ZipfFreq
	cfg.NewSampler = func(vocab int, seed uint64) sampling.CandidateSampler {
		return sampling.NewUnigramSampler(vocab, nil, seed)
	}
	tr, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.Evals[0].Loss {
		t.Errorf("unigram-sampled training did not improve: %v -> %v",
			res.Evals[0].Loss, res.FinalLoss)
	}
	if err := tr.ReplicasInSync(); err != nil {
		t.Error(err)
	}
}

// TestHierarchicalExchangeTraining runs the node-aware exchange end to end
// through the trainer and checks it reaches the same weights as the flat
// unique exchange.
func TestHierarchicalExchangeTraining(t *testing.T) {
	train, valid := markovData(80, 8_000, 5)
	run := func(ex core.Exchanger) *Trainer {
		cfg := smallConfig(4, ex)
		cfg.Model.Vocab = 80
		tr, err := New(cfg, train, valid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Run(1, 1); err != nil {
			t.Fatal(err)
		}
		if err := tr.ReplicasInSync(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	hier := collective.NewHierarchy(4, 2)
	a := run(core.HierarchicalExchange{Hier: hier})
	b := run(core.UniqueExchange{})
	var maxDiff float64
	for i := range a.Model(0).InEmb.Data {
		d := math.Abs(float64(a.Model(0).InEmb.Data[i] - b.Model(0).InEmb.Data[i]))
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-3 {
		t.Errorf("hierarchical and flat training diverged by %v", maxDiff)
	}
}

// TestNewRejectsMismatchedHierarchy: a hierarchy built for a different rank
// count must be refused up front, with or without the virtual clock — run
// anyway, the leaders' barrier waits for groups that do not exist and the
// first step never returns (hence the deadline).
func TestNewRejectsMismatchedHierarchy(t *testing.T) {
	train, valid := smallData(60, 4000, 4)
	hw := perfmodel.TitanX()
	for name, hardware := range map[string]*perfmodel.Hardware{"plain": nil, "hardware": &hw} {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(4, core.HierarchicalExchange{Hier: collective.NewHierarchy(8, 2)})
			cfg.Model.Sampled = 10
			cfg.Hardware = hardware
			done := make(chan error, 1)
			go func() {
				tr, err := New(cfg, train, valid)
				if err == nil {
					err = tr.Steps(1)
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "hierarchy spans 8 ranks") {
					t.Fatalf("want the rank-count mismatch reported by New, got %v", err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("New accepted a hierarchy of 8 ranks for a cluster of 4 and the step deadlocked")
			}
		})
	}
}
