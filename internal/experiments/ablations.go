package experiments

import (
	"fmt"
	"math"

	"zipflm/internal/corpus"
	"zipflm/internal/half"
	"zipflm/internal/metrics"
	"zipflm/internal/model"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
	"zipflm/internal/trainer"
)

func init() {
	register("abl-fp16", "Ablation: compression-scaling factor F vs gradient fidelity (§III-C)", runAblFP16)
	register("abl-seed", "Ablation: seeding strategy vs output-embedding unique words at paper scale (§III-B)", runAblSeed)
	register("abl-sampler", "Ablation: log-uniform vs exact-unigram sampled-softmax candidates", runAblSampler)
}

// runAblFP16 sweeps the compression-scaling factor F over a realistic
// gradient magnitude distribution and reports the flush-to-zero rate and
// RMS relative error — the §III-C design choice (F ∈ {256, 512, 1024}).
func runAblFP16(opts Options) (*Report, error) {
	r := rng.New(opts.Seed)
	const n = 200_000
	// Log-normal gradient magnitudes centred near 3e-6 with heavy spread —
	// late-training tail-word embedding gradients, the values §III-C's
	// loss/compression scaling exists to protect (FP16 flushes below
	// ~3e-8).
	grads := make([]float32, n)
	for i := range grads {
		mag := math.Exp(r.NormFloat64()*2.5 - 12.7) // median ≈ 3e-6
		if r.Float64() < 0.5 {
			mag = -mag
		}
		grads[i] = float32(mag)
	}

	tab := metrics.NewTable("FP16 wire fidelity vs compression-scaling factor:",
		"F", "flushed to zero", "saturated", "RMS rel. error")
	type row struct {
		f       float32
		flushed float64
	}
	var rows []row
	for _, f := range []float32{1, 64, 256, 512, 1024, 4096, 65536} {
		s := half.NewScaler(f)
		buf := make([]float32, n)
		copy(buf, grads)
		s.RoundTrip(buf)
		flushed, saturated := 0, 0
		var sumSq, count float64
		for i, v := range buf {
			if v == 0 && grads[i] != 0 {
				flushed++
				continue
			}
			if v == half.MaxFinite/f || v == -half.MaxFinite/f {
				saturated++
			}
			rel := float64(v-grads[i]) / float64(grads[i])
			sumSq += rel * rel
			count++
		}
		rms := math.Sqrt(sumSq / count)
		tab.AddRow(fmt.Sprintf("%.0f", f),
			fmt.Sprintf("%.2f%%", 100*float64(flushed)/n),
			fmt.Sprintf("%.2f%%", 100*float64(saturated)/n),
			fmt.Sprintf("%.4f", rms))
		rows = append(rows, row{f: f, flushed: float64(flushed) / n})
	}

	notes := []string{
		"paper (§III-C): multiply by F (e.g. 256, 512, 1024) before the down-cast to keep small gradients out of the FP16 flush-to-zero range",
	}
	// Sanity: flushing must decrease monotonically until saturation bites.
	if rows[0].flushed <= rows[3].flushed {
		notes = append(notes, "WARNING: scaling did not reduce flush-to-zero rate")
	}
	return &Report{Tables: []*metrics.Table{tab}, Notes: notes}, nil
}

// runAblSeed sweeps every §III-B strategy across cluster sizes at the
// paper's full word-LM scale, tabulating the output-embedding unique count
// the exchange will see — the structural half of Figure 7 (the accuracy
// half is experiment fig7).
func runAblSeed(opts Options) (*Report, error) {
	w := wordLM()
	strategies := append([]sampling.Strategy{}, sampling.Strategies()...)
	strategies = append(strategies, sampling.AllSame)

	headers := []string{"GPUs"}
	for _, s := range strategies {
		headers = append(headers, s.String())
	}
	tab := metrics.NewTable("Output-embedding U_g by seeding strategy (S=1024 samples/GPU, V=100K):", headers...)
	for _, g := range []int{8, 16, 64, 192} {
		row := []string{fmt.Sprint(g)}
		for _, s := range strategies {
			_, _, _, ugOut := measuredUnique(w, g, s, opts.Seed)
			row = append(row, fmt.Sprint(ugOut))
		}
		tab.AddRow(row...)
	}
	return &Report{
		Tables: []*metrics.Table{tab},
		Notes: []string{
			"U_g drives the Θ(G·S + U_g·D) cost of the output-embedding exchange (§III-B)",
			"Zipf's-freq (G^0.64 seeds) sits between the diversity of G and the overlap of a single seed — the pareto point of Figure 7",
		},
	}, nil
}

// runAblSampler trains the same word LM with the paper's log-uniform
// candidate distribution and with the exact-unigram alias sampler
// (sampling.NewUnigramSampler), comparing accuracy and the unique-candidate
// counts the exchange sees — one of the "strategies" of Chen et al. the
// paper cites.
func runAblSampler(opts Options) (*Report, error) {
	perRank := 12_000
	epochs := 2
	if opts.Quick {
		perRank = 4_000
		epochs = 1
	}
	train, valid := markovSplit(corpus.MarkovConfig{VocabSize: 399, Branching: 16, ZipfExponent: 1.2, Seed: opts.Seed},
		perRank*4+perRank, opts.Seed)

	type variant struct {
		name string
		mk   func(vocab int, seed uint64) sampling.CandidateSampler
	}
	variants := []variant{
		{"log-uniform (paper)", nil},
		{"exact unigram (alias)", func(vocab int, seed uint64) sampling.CandidateSampler {
			return sampling.NewUnigramSampler(vocab, nil, seed)
		}},
	}
	tab := metrics.NewTable("Sampled-softmax candidate distribution, word LM, 4 ranks:",
		"sampler", "final ppl", "avg U_g (output emb)")
	for _, v := range variants {
		cfg := trainer.Config{
			Model: model.Config{
				Vocab: 400, Dim: 20, Hidden: 28, RNN: model.KindLSTM, Sampled: 24,
			},
			Ranks:        4,
			BatchPerRank: 2,
			SeqLen:       12,
			LR:           0.3,
			ClipNorm:     1.0,
			SeedStrategy: sampling.ZipfFreq,
			NewSampler:   v.mk,
			BaseSeed:     opts.Seed,
		}
		tr, err := trainer.New(cfg, train, valid)
		if err != nil {
			return nil, err
		}
		res, err := tr.Run(epochs, 1)
		if err != nil {
			return nil, err
		}
		tab.AddRow(v.name,
			fmt.Sprintf("%.2f", res.Evals[len(res.Evals)-1].Perplexity),
			fmt.Sprintf("%.0f", res.Stats.AvgOutputUnique()))
	}
	return &Report{
		Tables: []*metrics.Table{tab},
		Notes: []string{
			"log-uniform approximates the unigram law analytically; the alias table samples the exact distribution in O(1)",
			"on a frequency-sorted Zipfian vocabulary the two behave similarly — the paper's choice is the cheaper-to-correct one",
		},
	}, nil
}
