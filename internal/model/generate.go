package model

import (
	"fmt"
	"math"

	"zipflm/internal/rng"
	"zipflm/internal/sampling"
)

// Generate samples a continuation of the prompt from the model: the prompt
// is consumed to warm the recurrent state, then n tokens are drawn one at a
// time from the full softmax at the given temperature (1 = the model's
// distribution, <1 sharper, >1 flatter; 0 = greedy argmax). Generation is
// deterministic given r.
//
// The model's training state is untouched — inference runs on an explicit
// GenState, never on the layers' carried training state.
func (m *LM) Generate(prompt []int, n int, temperature float64, r *rng.RNG) []int {
	return m.GenerateOpts(prompt, n, sampling.DecodeOpts{Temperature: temperature}, r)
}

// GenerateOpts is Generate with full decoding control (temperature plus
// top-k and nucleus filtering). All scratch — the step matrices, the
// decoder's sort buffers — is allocated once up front, so cost per token is
// pure arithmetic: the allocation-flatness test guards that generating 10×
// more tokens allocates no more objects.
func (m *LM) GenerateOpts(prompt []int, n int, opts sampling.DecodeOpts, r *rng.RNG) []int {
	if len(prompt) == 0 {
		panic("model: Generate needs a non-empty prompt")
	}
	if err := opts.Validate(); err != nil {
		panic("model: " + err.Error())
	}
	for _, id := range prompt {
		if id < 0 || id >= m.Cfg.Vocab {
			panic(fmt.Sprintf("model: prompt token %d outside vocabulary", id))
		}
	}

	st := m.NewStepper(1)
	gs := m.NewGenState()
	dec := sampling.NewDecoder(m.Cfg.Vocab)
	states := []*GenState{gs}
	id := make([]int, 1)

	// Warm up on the prompt; only its last token's logits feed a draw.
	st.warm(prompt[:len(prompt)-1], gs)
	id[0] = prompt[len(prompt)-1]
	lg := st.Step(id, states).Row(0)

	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		next := dec.Sample(lg, opts, r)
		out = append(out, next)
		if i < n-1 {
			id[0] = next
			lg = st.Step(id, states).Row(0)
		}
	}
	return out
}

// Score returns the model's mean cross-entropy (nats/token) on a stream —
// a convenience wrapper over EvalLoss for inference users.
func (m *LM) Score(stream []int, seqLen int) float64 {
	lossSum, count := m.EvalLoss(stream, seqLen)
	if count == 0 {
		return math.NaN()
	}
	return lossSum / float64(count)
}
