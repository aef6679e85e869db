package trainer

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"zipflm/internal/collective"
	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/half"
	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/sampling"
	"zipflm/internal/tensor"
)

// smallData builds a Zipfian train/valid pair.
func smallData(vocab, n int, seed uint64) (train, valid []int) {
	g := corpus.NewGenerator(corpus.GeneratorConfig{
		VocabSize:    vocab - 1, // generator emits [1, vocab-1]; id 0 = <unk>
		ZipfExponent: 1.2,
		Seed:         seed,
	})
	stream := g.Stream(n)
	return corpus.Split(stream, 10, 50, seed)
}

func smallConfig(ranks int, ex core.Exchanger) Config {
	return Config{
		Model: model.Config{
			Vocab: 60, Dim: 8, Hidden: 10, RNN: model.KindLSTM,
		},
		Ranks:        ranks,
		BatchPerRank: 2,
		SeqLen:       6,
		LR:           0.3,
		Exchange:     ex,
		SeedStrategy: sampling.AllDifferent,
		BaseSeed:     7,
	}
}

func TestTrainingConvergesLSTM(t *testing.T) {
	train, valid := smallData(60, 8000, 1)
	tr, err := New(smallConfig(2, core.UniqueExchange{}), train, valid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evals) < 2 {
		t.Fatalf("got %d evals", len(res.Evals))
	}
	first := res.Evals[0].Loss
	last := res.FinalLoss
	if !(last < first) {
		t.Errorf("validation loss did not improve: %v -> %v", first, last)
	}
	if math.IsNaN(last) || math.IsInf(last, 0) {
		t.Errorf("final loss is %v", last)
	}
	// Perplexity consistency.
	if math.Abs(res.Evals[0].Perplexity-math.Exp(first)) > 1e-9 {
		t.Error("perplexity != exp(loss)")
	}
}

func TestReplicasStayInSync(t *testing.T) {
	train, valid := smallData(60, 6000, 2)
	for _, ex := range []core.Exchanger{core.UniqueExchange{}, core.BaselineAllGather{}} {
		tr, err := New(smallConfig(3, ex), train, valid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Run(1, 1); err != nil {
			t.Fatal(err)
		}
		if err := tr.ReplicasInSync(); err != nil {
			t.Errorf("%s: %v", ex.Name(), err)
		}
	}
}

// TestEnginesTrainIdentically is the end-to-end version of the paper's
// equivalence claim: a full training run under the unique exchange reaches
// (numerically almost) the same weights as under the baseline exchange.
func TestEnginesTrainIdentically(t *testing.T) {
	train, valid := smallData(60, 6000, 3)
	run := func(ex core.Exchanger) *model.LM {
		tr, err := New(smallConfig(2, ex), train, valid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Run(1, 1); err != nil {
			t.Fatal(err)
		}
		return tr.Model(0)
	}
	a := run(core.BaselineAllGather{})
	b := run(core.UniqueExchange{})
	var maxDiff float64
	for i := range a.InEmb.Data {
		d := math.Abs(float64(a.InEmb.Data[i] - b.InEmb.Data[i]))
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-3 {
		t.Errorf("input embeddings diverged by %v between engines", maxDiff)
	}
}

func TestSampledSoftmaxTraining(t *testing.T) {
	train, valid := smallData(60, 8000, 4)
	cfg := smallConfig(2, core.UniqueExchange{})
	cfg.Model.Sampled = 12
	cfg.SeedStrategy = sampling.ZipfFreq
	tr, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= res.Evals[0].Loss {
		t.Errorf("sampled-softmax training did not improve: %v -> %v",
			res.Evals[0].Loss, res.FinalLoss)
	}
	if err := tr.ReplicasInSync(); err != nil {
		t.Error(err)
	}
	if res.Stats.AvgOutputUnique() <= 0 {
		t.Error("sampled run must record output-embedding unique counts")
	}
}

// TestSeedStrategyControlsOutputUnique: AllSame must see far fewer unique
// output-embedding words than AllDifferent — the §III-B mechanism measured
// end to end through real training steps.
func TestSeedStrategyControlsOutputUnique(t *testing.T) {
	train, valid := smallData(200, 9000, 5)
	uniqueFor := func(s sampling.Strategy) float64 {
		cfg := smallConfig(4, core.UniqueExchange{})
		cfg.Model.Vocab = 200
		cfg.Model.Sampled = 24
		cfg.SeedStrategy = s
		tr, err := New(cfg, train, valid)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.AvgOutputUnique()
	}
	same := uniqueFor(sampling.AllSame)
	diff := uniqueFor(sampling.AllDifferent)
	if !(same < diff) {
		t.Errorf("AllSame unique (%v) not below AllDifferent (%v)", same, diff)
	}
}

func TestRHNFullSoftmaxTraining(t *testing.T) {
	train, valid := smallData(40, 6000, 6)
	cfg := Config{
		Model: model.Config{
			Vocab: 40, Dim: 6, Hidden: 8, RNN: model.KindRHN, RHNDepth: 2,
		},
		Ranks:        2,
		BatchPerRank: 2,
		SeqLen:       5,
		LR:           0.02,
		NewOptimizer: func() optim.Optimizer { return optim.NewAdam(1e-5) },
		BaseSeed:     8,
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
		t.Errorf("char-style RHN training did not improve: %v -> %v",
			res.Evals[0].Loss, res.FinalLoss)
	}
	if err := tr.ReplicasInSync(); err != nil {
		t.Error(err)
	}
}

func TestFP16WireTrainingCloseToFP32(t *testing.T) {
	train, valid := smallData(60, 6000, 9)
	run := func(wire collective.Wire) float64 {
		cfg := smallConfig(2, core.UniqueExchange{})
		cfg.Wire = wire
		tr, err := New(cfg, train, valid)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.FinalLoss
	}
	fp32 := run(nil)
	fp16 := run(half.NewScaler(1024))
	// §V-A: "the perplexity … with and without compression are 84.12 and
	// 84.68" — compression-scaling must track FP32 closely.
	if math.Abs(fp16-fp32) > 0.15*math.Abs(fp32) {
		t.Errorf("FP16 wire diverged: %v vs %v", fp16, fp32)
	}
}

func TestTrainerRejectsBadConfig(t *testing.T) {
	train, valid := smallData(60, 4000, 10)
	bad := smallConfig(0, nil)
	if _, err := New(bad, train, valid); err == nil {
		t.Error("zero ranks must error")
	}
	small := smallConfig(2, nil)
	if _, err := New(small, train[:10], valid); err == nil {
		t.Error("insufficient shard must error")
	}
	small2 := smallConfig(2, nil)
	small2.SeqLen = 0
	if _, err := New(small2, train, valid); err == nil {
		t.Error("zero SeqLen must error")
	}
}

// TestNewRejectsTiledWorkers pins the deprecated Workers field: 0 and 1 are
// accepted and leave every replica on the serial kernels, anything above 1
// is refused instead of nesting a second pool inside the step's.
func TestNewRejectsTiledWorkers(t *testing.T) {
	train, valid := smallData(60, 4000, 10)
	for _, workers := range []int{0, 1} {
		cfg := smallConfig(2, nil)
		cfg.Workers = workers
		tr, err := New(cfg, train, valid)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		for r := 0; r < cfg.Ranks; r++ {
			if _, ok := tr.Model(r).Backend().(tensor.Serial); !ok {
				t.Fatalf("Workers=%d: rank %d computes on %T, want tensor.Serial", workers, r, tr.Model(r).Backend())
			}
		}
	}
	cfg := smallConfig(2, nil)
	cfg.Workers = 2
	if _, err := New(cfg, train, valid); err == nil {
		t.Fatal("Workers=2 must error")
	}
}

func TestStepsPerEpoch(t *testing.T) {
	train, valid := smallData(60, 5000, 11)
	cfg := smallConfig(2, nil)
	tr, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	span := cfg.BatchPerRank * cfg.SeqLen
	want := (len(train)/2 - 1) / span
	if got := tr.StepsPerEpoch(); got != want {
		t.Errorf("StepsPerEpoch = %d, want %d", got, want)
	}
}

func TestWireBytesTracked(t *testing.T) {
	train, valid := smallData(60, 5000, 12)
	tr, err := New(smallConfig(2, core.UniqueExchange{}), train, valid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WireBytesPerRank <= 0 {
		t.Error("wire bytes not tracked")
	}
	if res.Stats.AvgInputUnique() <= 0 {
		t.Error("input unique counts not tracked")
	}
}

// failOnRank completes the wrapped exchange for every rank and then, once
// armed, reports an error on one rank only: the other ranks of that step
// have nothing wrong with them. It wraps ExchangeRanks, the one method the
// trainer calls.
type failOnRank struct {
	core.Exchanger
	rank  int
	armed *atomic.Bool
}

func (f failOnRank) ExchangeRanks(ctxs []*core.Ctx, grads []core.SparseGrad) (core.Update, []core.Stats, []error) {
	upd, stats, errs := f.Exchanger.ExchangeRanks(ctxs, grads)
	if errs[f.rank] == nil && f.armed.Load() {
		errs[f.rank] = errors.New("injected exchange failure")
	}
	return upd, stats, errs
}

// TestAbortedStepLeavesOptimizersUntouched: the update — embeddings and
// optimizer step alike — must stay behind the check that every rank's
// exchange succeeded. When one rank's exchange fails, the step may not
// advance Adam's step count or moments, or move a dense parameter or an
// embedding row, as seen from any rank: the failing one or its healthy peers.
func TestAbortedStepLeavesOptimizersUntouched(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		train, valid := smallData(60, 8000, 9)
		armed := new(atomic.Bool)
		cfg := smallConfig(3, failOnRank{core.UniqueExchange{}, 1, armed})
		cfg.Overlap = overlap
		cfg.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }
		tr, err := New(cfg, train, valid)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Steps(2); err != nil {
			t.Fatal(err)
		}
		type rankState struct {
			opt     optim.State
			weights [][]float32
		}
		capture := func() []rankState {
			out := make([]rankState, cfg.Ranks)
			for r := range out {
				out[r].opt = tr.opt.Snapshot()
				for _, p := range tr.models[r].Weights() {
					out[r].weights = append(out[r].weights, slices.Clone(p.Value))
				}
			}
			return out
		}
		before := capture()
		if before[0].opt.T != 2 || len(before[0].opt.M) == 0 {
			t.Fatalf("overlap=%v: expected Adam state after 2 steps, got T=%d with %d moments", overlap, before[0].opt.T, len(before[0].opt.M))
		}
		armed.Store(true)
		if err := tr.Steps(1); err == nil {
			t.Fatalf("overlap=%v: expected the injected exchange failure to abort the step", overlap)
		}
		for r, after := range capture() {
			if !reflect.DeepEqual(before[r], after) {
				t.Errorf("overlap=%v: rank %d optimizer state or weights moved in an aborted step (T %d -> %d)",
					overlap, r, before[r].opt.T, after.opt.T)
			}
		}
	}
}
