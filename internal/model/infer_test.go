package model

import (
	"math"
	"testing"

	"zipflm/internal/israce"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
)

func testConfigs() map[string]Config {
	return map[string]Config{
		"lstm": {Vocab: 120, Dim: 16, Hidden: 24, RNN: KindLSTM, Seed: 5},
		"rhn":  {Vocab: 90, Dim: 12, Hidden: 20, RNN: KindRHN, RHNDepth: 3, Seed: 6},
	}
}

func randomPrompt(r *rng.RNG, vocab, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = r.Intn(vocab)
	}
	return p
}

// TestBatchedStepBitIdentical is the serving layer's core contract at the
// model level: advancing B ragged sequences together through one Stepper
// must produce, for every sequence, exactly the tokens the sequential
// Generate path produces — same prompts, same per-sequence RNGs, any batch
// composition.
func TestBatchedStepBitIdentical(t *testing.T) {
	for name, cfg := range testConfigs() {
		for _, temp := range []float64{0, 0.8} {
			m := NewLM(cfg)
			r := rng.New(99)
			const nSeq, nTok = 7, 12
			opts := sampling.DecodeOpts{Temperature: temp}

			// Ragged prompts, one RNG per sequence.
			prompts := make([][]int, nSeq)
			for i := range prompts {
				prompts[i] = randomPrompt(r, cfg.Vocab, 1+i%5)
			}
			want := make([][]int, nSeq)
			for i := range prompts {
				want[i] = m.GenerateOpts(prompts[i], nTok, opts, rng.New(uint64(i)+1))
			}

			// Batched: all sequences advance in lockstep through one
			// Stepper; a sequence samples once its prompt is consumed.
			st := m.NewStepper(nSeq)
			dec := sampling.NewDecoder(cfg.Vocab)
			states := make([]*GenState, nSeq)
			rngs := make([]*rng.RNG, nSeq)
			fed := make([]int, nSeq)
			got := make([][]int, nSeq)
			for i := range states {
				states[i] = m.NewGenState()
				rngs[i] = rng.New(uint64(i) + 1)
			}
			for {
				var ids []int
				var sts []*GenState
				var rows []int
				for i := range prompts {
					if len(got[i]) == nTok {
						continue
					}
					var tok int
					if fed[i] < len(prompts[i]) {
						tok = prompts[i][fed[i]]
					} else {
						tok = got[i][fed[i]-len(prompts[i])]
					}
					ids = append(ids, tok)
					sts = append(sts, states[i])
					rows = append(rows, i)
				}
				if len(ids) == 0 {
					break
				}
				lg := st.Step(ids, sts)
				for row, i := range rows {
					fed[i]++
					if fed[i] >= len(prompts[i]) {
						got[i] = append(got[i], dec.Sample(lg.Row(row), opts, rngs[i]))
					}
				}
			}

			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("%s temp=%v seq %d: got %d tokens, want %d", name, temp, i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if got[i][j] != want[i][j] {
						t.Fatalf("%s temp=%v seq %d token %d: batched %d != sequential %d",
							name, temp, i, j, got[i][j], want[i][j])
					}
				}
			}
		}
	}
}

// TestStepEmittingMatchesStep: StepEmitting advances every state exactly as
// Step does and returns, compacted, the very logits rows Step computes for
// the emitting sequences — FP32 and int8, every subset shape (none, some, all).
func TestStepEmittingMatchesStep(t *testing.T) {
	for name, cfg := range testConfigs() {
		for _, quantized := range []bool{false, true} {
			m := NewLM(cfg)
			if quantized {
				m = m.Quantize()
			}
			r := rng.New(5)
			const b = 6
			full, some := m.NewStepper(b), m.NewStepper(b)
			fs, ss := make([]*GenState, b), make([]*GenState, b)
			for i := range fs {
				fs[i], ss[i] = m.NewGenState(), m.NewGenState()
			}
			for _, emit := range [][]int{{}, {0, 1, 2, 3, 4, 5}, {1, 3, 4}, {5}, {0, 5}} {
				ids := randomPrompt(r, cfg.Vocab, b)
				want := full.Step(ids, fs)
				got := some.StepEmitting(ids, ss, emit)
				if (got == nil) != (len(emit) == 0) || (got != nil && got.Rows != len(emit)) {
					t.Fatalf("%s quantized=%v emit %v: result %v", name, quantized, emit, got)
				}
				for j, i := range emit {
					for c, w := range want.Row(i) {
						if math.Float32bits(got.Row(j)[c]) != math.Float32bits(w) {
							t.Fatalf("%s quantized=%v emit %v: row %d logit %d = %v, Step's row %d has %v",
								name, quantized, emit, j, c, got.Row(j)[c], i, w)
						}
					}
				}
				for i := range fs {
					for c := range fs[i].h {
						if math.Float32bits(ss[i].h[c]) != math.Float32bits(fs[i].h[c]) {
							t.Fatalf("%s quantized=%v emit %v: state %d diverged from Step's", name, quantized, emit, i)
						}
					}
				}
			}
		}
	}
}

// TestStepperVaryingBatchSize: the same sequence must produce identical
// tokens no matter what other sequences share its batches (here: alone, and
// padded with 1..max-1 decoy sequences).
func TestStepperVaryingBatchSize(t *testing.T) {
	cfg := testConfigs()["lstm"]
	m := NewLM(cfg)
	prompt := []int{3, 1, 4, 1, 5}
	const nTok = 8
	opts := sampling.DecodeOpts{Temperature: 0.7}
	want := m.GenerateOpts(prompt, nTok, opts, rng.New(42))

	for pad := 1; pad <= 4; pad++ {
		st := m.NewStepper(pad + 1)
		dec := sampling.NewDecoder(cfg.Vocab)
		r := rng.New(42)
		states := make([]*GenState, pad+1)
		ids := make([]int, pad+1)
		for i := range states {
			states[i] = m.NewGenState()
		}
		var lg []float32
		feed := func(tok int) {
			ids[0] = tok
			for i := 1; i <= pad; i++ {
				ids[i] = (tok + i) % cfg.Vocab // decoys
			}
			lg = st.Step(ids, states).Row(0)
		}
		for _, tok := range prompt {
			feed(tok)
		}
		for j := 0; j < nTok; j++ {
			next := dec.Sample(lg, opts, r)
			if next != want[j] {
				t.Fatalf("pad=%d token %d: %d != sequential %d", pad, j, next, want[j])
			}
			if j < nTok-1 {
				feed(next)
			}
		}
	}
}

// TestGenerateOptsFilters exercises top-k and nucleus decoding: outputs stay
// in range, are deterministic given the seed, and top-k=1 collapses to
// greedy regardless of temperature.
func TestGenerateOptsFilters(t *testing.T) {
	cfg := testConfigs()["lstm"]
	m := NewLM(cfg)
	prompt := []int{2, 7}
	for _, opts := range []sampling.DecodeOpts{
		{Temperature: 1.0, TopK: 5},
		{Temperature: 0.9, TopP: 0.8},
		{Temperature: 1.1, TopK: 12, TopP: 0.95},
	} {
		a := m.GenerateOpts(prompt, 10, opts, rng.New(7))
		b := m.GenerateOpts(prompt, 10, opts, rng.New(7))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("opts %+v not deterministic", opts)
			}
			if a[i] < 0 || a[i] >= cfg.Vocab {
				t.Fatalf("opts %+v produced out-of-range token %d", opts, a[i])
			}
		}
	}

	greedy := m.GenerateOpts(prompt, 10, sampling.DecodeOpts{Temperature: 0}, rng.New(1))
	top1 := m.GenerateOpts(prompt, 10, sampling.DecodeOpts{Temperature: 1.3, TopK: 1}, rng.New(2))
	for i := range greedy {
		if greedy[i] != top1[i] {
			t.Fatalf("top-k=1 diverged from greedy at token %d: %d vs %d", i, top1[i], greedy[i])
		}
	}
}

// TestGenerateAllocFlat is the per-token allocation-churn guard: generating
// 10× the tokens must not allocate a single extra object, because all step
// scratch lives in the Stepper and the Decoder. (The old Generate allocated
// fresh matrices every token; this pins the fix.)
func TestGenerateAllocFlat(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation guards are not meaningful under -race")
	}
	for name, cfg := range testConfigs() {
		m := NewLM(cfg)
		prompt := []int{1, 2, 3}
		for _, opts := range []sampling.DecodeOpts{
			{Temperature: 0},
			{Temperature: 0.8},
		} {
			short := testing.AllocsPerRun(10, func() {
				m.GenerateOpts(prompt, 8, opts, rng.New(3))
			})
			long := testing.AllocsPerRun(10, func() {
				m.GenerateOpts(prompt, 80, opts, rng.New(3))
			})
			// Only the result slice may differ (append growth): allow a
			// couple of objects of slack, not the ~6 per token of old.
			if long-short > 4 {
				t.Errorf("%s opts %+v: 80-token run allocates %.0f more objects than 8-token run, want ≤ 4",
					name, opts, long-short)
			}
		}
	}
}

// TestGenerateDoesNotDisturbTraining: inference between two training steps
// must not change what the second step computes (state is explicit now, but
// keep the old guarantee pinned).
func TestGenerateDoesNotDisturbTraining(t *testing.T) {
	cfg := testConfigs()["lstm"]
	cfg.Stateful = true
	mkBatch := func(r *rng.RNG) ([][]int, [][]int) {
		const tt, bb = 4, 2
		in := make([][]int, tt)
		tg := make([][]int, tt)
		for s := 0; s < tt; s++ {
			in[s] = randomPrompt(r, cfg.Vocab, bb)
			tg[s] = randomPrompt(r, cfg.Vocab, bb)
		}
		return in, tg
	}

	run := func(generateBetween bool) float64 {
		m := NewLM(cfg)
		r := rng.New(33)
		in1, tg1 := mkBatch(r)
		in2, tg2 := mkBatch(r)
		m.ForwardBackward(in1, tg1, nil)
		if generateBetween {
			m.Generate([]int{1, 2}, 6, 0.9, rng.New(4))
		}
		res := m.ForwardBackward(in2, tg2, nil)
		return res.LossSum
	}

	if a, b := run(false), run(true); a != b {
		t.Fatalf("Generate disturbed training state: loss %v vs %v", a, b)
	}
}
