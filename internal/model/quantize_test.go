package model

import (
	"math"
	"testing"

	"zipflm/internal/rng"
	"zipflm/internal/sampling"
	"zipflm/internal/tensor"
)

func sameQ(t *testing.T, name string, a, b *tensor.QMatrix) {
	t.Helper()
	if a == nil || b == nil {
		t.Fatalf("%s: missing quantized shadow", name)
	}
	if a.Rows != b.Rows || a.Cols != b.Cols || a.Chunk != b.Chunk {
		t.Fatalf("%s: shape mismatch", name)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("%s: q8 code %d differs: %d vs %d", name, i, a.Data[i], b.Data[i])
		}
	}
	for i := range a.Scales {
		if math.Float32bits(a.Scales[i]) != math.Float32bits(b.Scales[i]) {
			t.Fatalf("%s: scale %d differs", name, i)
		}
	}
}

// TestQuantizeDeterministicBytes is the reproducibility half of the
// quantized-serving contract: loading the same checkpoint twice and
// quantizing both replicas yields byte-identical q8 weights, so a serving
// fleet built from one checkpoint file is homogeneous.
func TestQuantizeDeterministicBytes(t *testing.T) {
	for name, cfg := range testConfigs() {
		m := NewLM(cfg)
		raw, err := m.Marshal()
		if err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		m1, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		m2, err := Unmarshal(raw)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		m1.QuantizeWeights()
		m2.QuantizeWeights()
		if m1.qOutEmb == nil || m2.qOutEmb == nil {
			t.Fatalf("%s: QuantizeWeights left the replica unquantized", name)
		}
		sameQ(t, name+".outEmb", m1.qOutEmb, m2.qOutEmb)
		sameQ(t, name+".proj", m1.proj.qw, m2.proj.qw)
		switch r1 := m1.rnn.(type) {
		case *LSTM:
			r2 := m2.rnn.(*LSTM)
			sameQ(t, name+".wx", r1.qwx, r2.qwx)
			sameQ(t, name+".wh", r1.qwh, r2.qwh)
		case *RHN:
			r2 := m2.rnn.(*RHN)
			sameQ(t, name+".wh", r1.qwh, r2.qwh)
			sameQ(t, name+".wt", r1.qwt, r2.qwt)
			for d := range r1.qrh {
				sameQ(t, name+".rh", r1.qrh[d], r2.qrh[d])
				sameQ(t, name+".rt", r1.qrt[d], r2.qrt[d])
			}
		}
	}
}

// TestQuantizeLeavesTrainingPathAlone: the shadows live beside the FP32
// weights, so evaluation on a quantized replica is bit-identical to the
// source model — only the inference step path changes.
func TestQuantizeLeavesTrainingPathAlone(t *testing.T) {
	for name, cfg := range testConfigs() {
		m := NewLM(cfg)
		q := m.Quantize()
		if q.qOutEmb == nil || m.qOutEmb != nil {
			t.Fatalf("%s: Quantize should convert the copy, not the source", name)
		}
		r := rng.New(11)
		stream := randomPrompt(r, cfg.Vocab, 60)
		wantLoss, wantN := m.EvalLoss(stream, 10)
		gotLoss, gotN := q.EvalLoss(stream, 10)
		if wantLoss != gotLoss || wantN != gotN {
			t.Fatalf("%s: quantized EvalLoss %v/%d != FP32 %v/%d", name, gotLoss, gotN, wantLoss, wantN)
		}
	}
}

// TestQuantizedStepBitIdentical extends the serving bit-identity contract to
// the q8 path: on a quantized replica, batched stepping and every worker
// count reproduce the sequential quantized Generate exactly. (The q8 output
// differs from FP32 output by design; the contract is determinism of the
// quantized path itself.)
func TestQuantizedStepBitIdentical(t *testing.T) {
	for name, cfg := range testConfigs() {
		for _, temp := range []float64{0, 0.8} {
			m := NewLM(cfg)
			opts := sampling.DecodeOpts{Temperature: temp}
			r := rng.New(21)
			const nSeq, nTok = 3, 10
			prompts := make([][]int, nSeq)
			for i := range prompts {
				prompts[i] = randomPrompt(r, cfg.Vocab, 4)
			}

			q := m.Quantize()
			want := make([][]int, nSeq)
			for i := range prompts {
				want[i] = q.GenerateOpts(prompts[i], nTok, opts, rng.New(uint64(i)+1))
			}

			for _, workers := range []int{1, 4} {
				be := tensor.New(workers)
				qw := m.Quantize()
				qw.SetBackend(be)

				// Batched lockstep over equal-length prompts.
				st := qw.NewStepper(nSeq)
				dec := sampling.NewDecoder(cfg.Vocab)
				states := make([]*GenState, nSeq)
				rngs := make([]*rng.RNG, nSeq)
				ids := make([]int, nSeq)
				got := make([][]int, nSeq)
				for i := range states {
					states[i] = qw.NewGenState()
					rngs[i] = rng.New(uint64(i) + 1)
				}
				for step := 0; ; step++ {
					for i := range prompts {
						if step < len(prompts[i]) {
							ids[i] = prompts[i][step]
						} else {
							ids[i] = got[i][step-len(prompts[i])]
						}
					}
					lg := st.Step(ids, states)
					done := true
					for i := range prompts {
						if step >= len(prompts[i])-1 && len(got[i]) < nTok {
							got[i] = append(got[i], dec.Sample(lg.Row(i), opts, rngs[i]))
						}
						if len(got[i]) < nTok {
							done = false
						}
					}
					if done {
						break
					}
				}
				for i := range want {
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("%s temp=%v workers=%d seq %d token %d: batched %d != sequential %d",
								name, temp, workers, i, j, got[i][j], want[i][j])
						}
					}
				}
				if p, ok := be.(*tensor.Parallel); ok {
					p.Close()
				}
			}
		}
	}
}
