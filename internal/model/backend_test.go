package model

import (
	"fmt"
	"testing"

	"zipflm/internal/rng"
	"zipflm/internal/sampling"
	"zipflm/internal/tensor"
)

// countingBackend counts every call made through it and computes on Serial.
type countingBackend struct {
	tensor.Serial
	abt, q8, other int
}

func (c *countingBackend) MatMulABT(dst, a, b *tensor.Matrix) {
	c.abt++
	c.Serial.MatMulABT(dst, a, b)
}

func (c *countingBackend) MatMulABTStreamQ8(dst, a *tensor.Matrix, b *tensor.QMatrix) {
	c.q8++
	c.Serial.MatMulABTStreamQ8(dst, a, b)
}

func (c *countingBackend) For(n int, fn func(i int)) {
	c.other++
	c.Serial.For(n, fn)
}

func (c *countingBackend) Workers() int {
	c.other++
	return c.Serial.Workers()
}

func (c *countingBackend) calls() int { return c.abt + c.q8 + c.other }

// TestOnlyStepperUsesBackend: an LM's backend serves its inference Steppers
// and nothing else. Stateful training steps (full and sampled softmax, LSTM
// and RHN) and EvalLoss make no call on it; Stepper.Step computes its
// products there, to the bits a Serial LM's Stepper gives, and a Stepper
// built before SetBackend makes the same calls there as one built after.
func TestOnlyStepperUsesBackend(t *testing.T) {
	for kind, name := range map[RNNKind]string{KindLSTM: "lstm", KindRHN: "rhn"} {
		for _, sampled := range []int{0, 6} {
			cfg := Config{Vocab: 40, Dim: 12, Hidden: 16, RNN: kind, RHNDepth: 2, Sampled: sampled, Stateful: true, Seed: 9}
			t.Run(fmt.Sprintf("%s/sampled=%d", name, sampled), func(t *testing.T) {
				m, ref := NewLM(cfg), NewLM(cfg)
				early := m.NewStepper(3)
				be := &countingBackend{}
				m.SetBackend(be)

				r := rng.New(3)
				var sampler sampling.CandidateSampler
				if sampled > 0 {
					sampler = sampling.NewSampler(cfg.Vocab, 5)
				}
				for step := 0; step < 2; step++ { // the second step starts from the carried state
					m.ForwardBackward(randBatch(r, 5, 3, cfg.Vocab), randBatch(r, 5, 3, cfg.Vocab), sampler)
				}
				if n := be.calls(); n != 0 {
					t.Fatalf("ForwardBackward made %d backend calls, want 0", n)
				}
				stream := make([]int, 30)
				for i := range stream {
					stream[i] = r.Intn(cfg.Vocab)
				}
				m.EvalLoss(stream, 7)
				if n := be.calls(); n != 0 {
					t.Fatalf("EvalLoss made %d backend calls, want 0", n)
				}

				ids := []int{1, 7, 30}
				perStep := 0 // the first Stepper's MatMulABT calls per Step
				for _, c := range []struct {
					name string
					st   *Stepper
				}{{"stepper", m.NewStepper(3)}, {"stepper built before SetBackend", early}} {
					states, refStates := make([]*GenState, 3), make([]*GenState, 3)
					for i := range states {
						states[i], refStates[i] = m.NewGenState(), ref.NewGenState()
					}
					before := be.abt
					got := c.st.Step(ids, states)
					if perStep == 0 {
						perStep = be.abt - before
					}
					if n := be.abt - before; n == 0 || n != perStep {
						t.Fatalf("%s: Step made %d MatMulABT calls on the LM's backend, the first Stepper %d (want equal and > 0)",
							c.name, n, perStep)
					}
					want := ref.NewStepper(3).Step(ids, refStates)
					sameBits(t, c.name+" logits", got.Data, want.Data)
				}
			})
		}
	}
}

// TestParallelBackendBitIdenticalStepper checks the serving path: Stepper
// logits through the tiled backend match the serial ones exactly, so
// generated token streams cannot diverge.
func TestParallelBackendBitIdenticalStepper(t *testing.T) {
	cfg := Config{Vocab: 90, Dim: 12, Hidden: 16, RNN: KindLSTM, Seed: 33}
	serial := NewLM(cfg)
	tiled := NewLM(cfg)
	be := tensor.NewParallel(3)
	defer be.Close()
	tiled.SetBackend(be)

	prompt := []int{3, 14, 15, 9, 2}
	opts := sampling.DecodeOpts{Temperature: 0.9}
	ga := serial.GenerateOpts(prompt, 32, opts, rng.New(11))
	gb := tiled.GenerateOpts(prompt, 32, opts, rng.New(11))
	if len(ga) != len(gb) {
		t.Fatalf("generated %d tokens, serial %d", len(gb), len(ga))
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("token %d: tiled backend generated %d, serial %d", i, gb[i], ga[i])
		}
	}
}
