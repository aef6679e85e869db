package experiments

import (
	"fmt"
	"math"

	"zipflm/internal/corpus"
	"zipflm/internal/metrics"
	"zipflm/internal/model"
	"zipflm/internal/sampling"
	"zipflm/internal/trainer"
)

func init() {
	register("tab5", "Table V: Tieba weak scaling — 6/24/192 GPUs, 3/12/93 GB, time and perplexity", runTab5)
}

// runTab5 regenerates Table V in two halves:
//
//   - The epoch-hours column comes from the calibrated cost model under
//     weak scaling (data and GPUs grow together, so steps/epoch stays
//     constant and only communication overhead grows).
//   - The perplexity column comes from *real training* of a scaled-down
//     Chinese-style char LM on synthetic Tieba corpora whose sizes grow
//     32× across the rows, reproducing the paper's headline: more data +
//     more GPUs at nearly constant wall-clock buys a large accuracy win.
func runTab5(opts Options) (*Report, error) {
	w := tiebaLM()
	hw := w.hardware()

	type row struct {
		chars float64 // billions
		gpus  int
		batch int
		hours float64 // paper
		ppl   float64 // paper
	}
	paper := []row{
		{1.07, 6, 768, 27, 17.06},
		{4.29, 24, 3072, 28, 13.6},
		{34.36, 192, 12288, 34, 11.1},
	}

	// --- Time half (full-scale cost model). ---
	timeTab := metrics.NewTable("Table V, training time (weak scaling):",
		"Chars (B)", "Corpus", "GPUs", "Batch", "hrs (paper)", "hrs (model)", "time vs 6-GPU")
	var baseHours float64
	for _, r := range paper {
		cost, _ := priceStep(w, r.gpus, stackCompressed, opts.Seed)
		tokens := int64(r.chars * 1e9)
		hours := hw.EpochTime(r.gpus, w.K, tokens, cost)
		if baseHours == 0 {
			baseHours = hours
		}
		timeTab.AddRow(
			fmt.Sprintf("%.2f", r.chars),
			metrics.HumanBytes(int64(r.chars*1e9*2.71)),
			fmt.Sprintf("%d", r.gpus),
			fmt.Sprintf("%d", r.batch),
			fmt.Sprintf("%.0f", r.hours),
			fmt.Sprintf("%.0f", hours),
			fmt.Sprintf("%.2f×", hours/baseHours))
	}

	// --- Accuracy half (real scaled-down training). ---
	// Ranks scale 1:4:32 like the paper's 6:24:192; the corpus scales with
	// the ranks (weak scaling), so every configuration sees the same number
	// of steps but the larger ones train on more data.
	ranksBase, perRank := 1, 24_000
	epochs := 2
	vocab := 300
	if opts.Quick {
		perRank = 6_000
		epochs = 1
		vocab = 120
	}
	d, err := corpus.DatasetByName("tieba")
	if err != nil {
		return nil, err
	}
	accTab := metrics.NewTable("Table V, accuracy (real scaled-down training; ranks 1:4:32, data grows with ranks):",
		"ranks", "train tokens", "ppl (paper)", "ppl (measured)", "improvement vs first")
	var basePPL float64
	notes := []string{}
	ratios := []int{1, 4, 32}
	if opts.Quick {
		ratios = []int{1, 4, 8}
	}
	for i, mult := range ratios {
		ranks := ranksBase * mult
		train, valid := markovSplit(corpus.MarkovConfig{
			VocabSize: vocab - 1, Branching: 10, ZipfExponent: d.ZipfExponent, Seed: opts.Seed + uint64(i),
		}, perRank*ranks+perRank/4, opts.Seed)
		cfg := trainer.Config{
			Model: model.Config{
				Vocab: vocab, Dim: 16, Hidden: 24,
				RNN: model.KindRHN, RHNDepth: 2,
				Sampled: 32,
			},
			Ranks:        ranks,
			BatchPerRank: 2,
			SeqLen:       16,
			// Weak scaling grows the global batch with the ranks; the LR
			// follows the paper's sub-linear rule (2e-4 → 4e-4 → 5e-4
			// over 1×/4×/32×), here 1 + ln(ranks), with clipping for
			// stability at the scaled rate.
			LR:           0.15 * (1 + math.Log(float64(ranks))),
			ClipNorm:     1.0,
			SeedStrategy: sampling.ZipfFreq,
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
		ppl := res.Evals[len(res.Evals)-1].Perplexity
		if basePPL == 0 {
			basePPL = ppl
		}
		accTab.AddRow(
			fmt.Sprintf("%d", ranks),
			fmt.Sprintf("%d", len(train)),
			fmt.Sprintf("%.2f", paper[min(i, len(paper)-1)].ppl),
			fmt.Sprintf("%.2f", ppl),
			fmt.Sprintf("%.0f%%", 100*metrics.AccuracyImprovement(basePPL, ppl)))
	}

	notes = append(notes,
		"paper: 32× more data + GPUs costs only 1.25× more time but improves accuracy 35%",
		fmt.Sprintf("model time ratio at 32×: see last row (paper: %.2f×)", 34.0/27.0),
		"measured perplexities are from scaled-down synthetic Chinese-style corpora; the trend (more data at constant steps → lower perplexity) is the reproduced claim",
	)
	// Compression-ratio cross-check (§V-C): perplexity 11.1 at 2.71
	// bytes/char → ratio ≈ 6.3 vs [21]'s 6.8.
	bpc := metrics.BPC(math.Log(11.1))
	cr := metrics.CompressionRatio(2.71, bpc)
	notes = append(notes, fmt.Sprintf("compression ratio at paper's ppl 11.1: %.1f (paper: 6.3; [21]: 6.8)", cr))

	return &Report{Tables: []*metrics.Table{timeTab, accTab}, Notes: notes}, nil
}
