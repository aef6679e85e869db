package model

import (
	"testing"

	"zipflm/internal/israce"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
)

// TestForwardBackwardAllocBound pins the heap allocations of one training
// step's model half on the two shapes the repository benchmark trains
// (train_word: LSTM, sampled softmax, 20×4 tokens per rank; train_char_comm:
// RHN depth 3, full softmax, 8×1). Before the sequence workspace a call made
// 329 and 351 allocations — every activation of every timestep was a fresh
// matrix. What is left is the candidate sampler's set and map; a change may
// lower the bound, not raise it.
func TestForwardBackwardAllocBound(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	for _, shape := range []struct {
		name          string
		cfg           Config
		batch, seqLen int
		bound         float64
	}{
		{"train_word", Config{Vocab: 10000, Dim: 64, Hidden: 128, RNN: KindLSTM, Sampled: 128}, 4, 20, 8},
		{"train_char_comm", Config{Vocab: 98, Dim: 32, Hidden: 256, RNN: KindRHN, RHNDepth: 3}, 1, 8, 0},
	} {
		m := NewLM(shape.cfg)
		r := rng.New(1)
		inputs := randBatch(r, shape.seqLen, shape.batch, shape.cfg.Vocab)
		targets := randBatch(r, shape.seqLen, shape.batch, shape.cfg.Vocab)
		var sampler sampling.CandidateSampler
		if shape.cfg.Sampled > 0 {
			sampler = sampling.NewSampler(shape.cfg.Vocab, 1)
		}
		step := func() {
			m.ZeroGrads()
			m.ForwardBackward(inputs, targets, sampler)
		}
		step() // sizes the workspace
		if allocs := testing.AllocsPerRun(20, step); allocs > shape.bound {
			t.Errorf("%s: %v allocations per ForwardBackward, bound %v", shape.name, allocs, shape.bound)
		} else {
			t.Logf("%s: %v allocations per ForwardBackward (bound %v)", shape.name, allocs, shape.bound)
		}
	}
}
