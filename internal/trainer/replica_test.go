package trainer

import (
	"runtime"
	"testing"

	"zipflm/internal/core"
	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/sampling"
)

// TestReplicasShareWeightsOwnTrainingState: at G = 4 every rank's weight
// tensors are rank 0's storage, while nothing a step writes — the dense
// gradients, the training workspace, the dropout stream, the carried
// recurrent state — is shared between ranks, and the one optimizer takes one
// step per training step.
func TestReplicasShareWeightsOwnTrainingState(t *testing.T) {
	train, valid := smallData(60, 8000, 17)
	const g, steps = 4, 5
	for _, c := range []struct {
		name string
		set  func(*Config)
	}{
		{"lstm-sampled-sgd", func(c *Config) {
			c.Model.Sampled = 12
			c.SeedStrategy = sampling.ZipfFreq
		}},
		{"rhn-full-dropout-stateful-adam", func(c *Config) {
			c.Model = model.Config{Vocab: 60, Dim: 8, Hidden: 10, RNN: model.KindRHN, RHNDepth: 2, Dropout: 0.25, Stateful: true}
			c.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := smallConfig(g, core.UniqueExchange{})
			c.set(&cfg)
			tr, err := New(cfg, train, valid)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Steps(steps); err != nil {
				t.Fatal(err)
			}
			if err := tr.ReplicasInSync(); err != nil {
				t.Fatal(err)
			}
			ref := tr.Model(0).Weights()
			grads := map[*float32]int{}
			for r := 0; r < g; r++ {
				m := tr.Model(r)
				for i, p := range m.Weights() {
					if &p.Value[0] != &ref[i].Value[0] {
						t.Errorf("rank %d %s is not rank 0's storage", r, p.Name)
					}
				}
				for _, p := range m.DenseParams() {
					if q, ok := grads[&p.Grad[0]]; ok {
						t.Errorf("rank %d %s gradient is rank %d's", r, p.Name, q)
					}
					grads[&p.Grad[0]] = r
				}
			}
			if adam, ok := tr.opt.(*optim.Adam); ok {
				if got := adam.Snapshot().T; got != steps {
					t.Errorf("Adam stepped %d times in %d training steps", got, steps)
				}
			}

			// Carried state: reset every replica's; rank 0 keeps its own.
			if cfg.Model.Stateful {
				for r := 1; r < g; r++ {
					tr.Model(r).ResetRNNState()
				}
				if tr.Model(0).CarriedRNNState().H == nil {
					t.Error("resetting the replicas' carried state cleared rank 0's")
				}
			}
			// Dropout stream: move every replica's; rank 0's stays put.
			rng0 := tr.Model(0).RNGState()
			for r := 1; r < g; r++ {
				tr.Model(r).SetRNGState([4]uint64{uint64(r), 1, 2, 3})
			}
			if tr.Model(0).RNGState() != rng0 {
				t.Error("setting the replicas' dropout streams moved rank 0's")
			}
			// Workspace: each rank's step result lives in an arena of its own.
			inputs, targets := tr.batchAt(0, 0)
			arenas := map[*float32]int{}
			for r := 0; r < g; r++ {
				res := tr.Model(r).ForwardBackward(inputs, targets, nil)
				if q, ok := arenas[&res.InputGrad.Rows.Data[0]]; ok {
					t.Errorf("rank %d's step result is in rank %d's workspace", r, q)
				}
				arenas[&res.InputGrad.Rows.Data[0]] = r
			}
		})
	}
}

// TestNewAllocatesOneSetOfWeights: ranks beyond the first cost their
// training state, not a copy of the weights. On the word-LM workload's shape
// New at G = 4 allocates less than one replica's weight bytes more than New
// at G = 1.
func TestNewAllocatesOneSetOfWeights(t *testing.T) {
	train, valid := smallData(10000, 4000, 3)
	cfg := smallConfig(1, core.UniqueExchange{})
	cfg.Model = model.Config{Vocab: 10000, Dim: 64, Hidden: 128, RNN: model.KindLSTM, Sampled: 128}
	build := func(g int) (*Trainer, uint64) {
		cfg.Ranks = g
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tr, err := New(cfg, train, valid)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return tr, m1.TotalAlloc - m0.TotalAlloc
	}
	one, a1 := build(1)
	_, a4 := build(4)
	var weightBytes uint64
	for _, p := range one.Model(0).Weights() {
		weightBytes += 4 * uint64(len(p.Value))
	}
	if a4 < a1 || a4-a1 >= weightBytes {
		t.Fatalf("New allocated %d bytes at G = 4 and %d at G = 1; three more ranks must cost less than one replica's %d weight bytes", a4, a1, weightBytes)
	}
	t.Logf("three more ranks allocated %d bytes, %.2f of one replica's weights", a4-a1, float64(a4-a1)/float64(weightBytes))
}
