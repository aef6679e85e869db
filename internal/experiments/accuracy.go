package experiments

import (
	"fmt"

	"zipflm/internal/corpus"
	"zipflm/internal/metrics"
	"zipflm/internal/model"
	"zipflm/internal/sampling"
	"zipflm/internal/trainer"
)

func init() {
	register("fig5", "Figure 5: word-LM validation perplexity vs epoch at 16/32/64 GPUs (scaled ranks 2/4/8)", runFig5)
	register("fig8", "Figure 8: char-LM validation perplexity vs epoch at 16/32/64 GPUs (scaled ranks 2/4/8)", runFig8)
	register("fig7", "Figure 7: sampled-softmax seeding strategies vs accuracy (word LM)", runFig7)
	register("bpc", "§V-D: char-LM bits-per-character on the Amazon-review stand-in", runBPC)
}

// convergenceConfig holds the shared scaled-down setup of Figures 5 and 8.
type convergenceConfig struct {
	modelCfg  model.Config
	ranks     []int
	labels    []string
	epochs    int
	evals     int
	perRank   int
	lrBase    float64
	seqLen    int
	batch     int
	zipfExp   float64
	branching int
	paperNote string
	// paperGap is the figure's own first-to-last gap, quoted in the gap note.
	paperGap string
}

// markovSplit draws n tokens from a Markov generator — sequential structure,
// so validation perplexity falls over epochs the way the paper's curves do —
// and splits them 10:1 in blocks of 100: the corpus every Markov-trained
// report trains on.
func markovSplit(cfg corpus.MarkovConfig, n int, seed uint64) (train, valid []int) {
	return corpus.Split(corpus.NewMarkovGenerator(cfg).Stream(n), 10, 100, seed)
}

// runConvergence trains one model per rank count on the same total corpus
// (strong scaling: global batch grows with ranks, as in the paper) and
// tabulates the validation perplexity trajectory.
func runConvergence(cc convergenceConfig, opts Options) (*Report, error) {
	if opts.Quick {
		cc.epochs = 1
		cc.perRank /= 4
		if cc.evals > 2 {
			cc.evals = 2
		}
	}
	maxRanks := cc.ranks[len(cc.ranks)-1]
	total := cc.perRank * maxRanks
	train, valid := markovSplit(corpus.MarkovConfig{
		VocabSize: cc.modelCfg.Vocab - 1, Branching: cc.branching, ZipfExponent: cc.zipfExp, Seed: opts.Seed,
	}, total+total/10, opts.Seed)

	type trace struct {
		ranks int
		evals []trainer.EvalPoint
	}
	traces := make([]trace, 0, len(cc.ranks))
	for _, ranks := range cc.ranks {
		cfg := trainer.Config{
			Model:        cc.modelCfg,
			Ranks:        ranks,
			BatchPerRank: cc.batch,
			SeqLen:       cc.seqLen,
			// The paper uses base × ln(nodes); at paper scale an epoch
			// is ~150K steps and ln-scaling suffices. These scaled-down
			// epochs are a few hundred steps, where the larger global
			// batch needs the full linear rule (Goyal et al.) to keep
			// up within the plotted window; gradients are clipped for
			// stability at the scaled rate.
			LR:           cc.lrBase * float64(ranks) / float64(cc.ranks[0]),
			ClipNorm:     1.0,
			SeedStrategy: sampling.ZipfFreq,
			BaseSeed:     opts.Seed,
		}
		tr, err := trainer.New(cfg, train, valid)
		if err != nil {
			return nil, err
		}
		res, err := tr.Run(cc.epochs, cc.evals)
		if err != nil {
			return nil, err
		}
		traces = append(traces, trace{ranks: ranks, evals: res.Evals})
	}

	headers := []string{"epoch"}
	for i, tr := range traces {
		headers = append(headers, fmt.Sprintf("ppl @%s (ranks=%d)", cc.labels[i], tr.ranks))
	}
	tab := metrics.NewTable("Validation perplexity vs training progress:", headers...)
	nPoints := len(traces[0].evals)
	for p := 0; p < nPoints; p++ {
		row := []string{fmt.Sprintf("%.2f", traces[0].evals[p].Epoch)}
		for _, tr := range traces {
			if p < len(tr.evals) {
				row = append(row, fmt.Sprintf("%.2f", tr.evals[p].Perplexity))
			} else {
				row = append(row, "-")
			}
		}
		tab.AddRow(row...)
	}

	notes := []string{cc.paperNote}
	// The paper's claim: curves converge — the final gap between the
	// smallest and largest configuration shrinks vs the initial gap.
	firstGap := relGap(traces[0].evals[0].Perplexity, traces[len(traces)-1].evals[0].Perplexity)
	lastGap := relGap(lastPPL(traces[0].evals), lastPPL(traces[len(traces)-1].evals))
	notes = append(notes, fmt.Sprintf(
		"perplexity gap smallest-vs-largest config: %.1f%% at first eval → %.1f%% at last (paper: %s)",
		100*firstGap, 100*lastGap, cc.paperGap))
	if lastGap > firstGap && lastGap > 0.15 {
		notes = append(notes, "WARNING: configurations did not converge toward each other")
	}
	return &Report{Tables: []*metrics.Table{tab}, Notes: notes}, nil
}

func relGap(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := b - a
	if d < 0 {
		d = -d
	}
	return d / a
}

func lastPPL(evals []trainer.EvalPoint) float64 {
	return evals[len(evals)-1].Perplexity
}

func runFig5(opts Options) (*Report, error) {
	return runConvergence(convergenceConfig{
		modelCfg: model.Config{
			Vocab: 800, Dim: 24, Hidden: 32, RNN: model.KindLSTM, Sampled: 48,
		},
		ranks:     []int{2, 4, 8},
		labels:    []string{"16gpu", "32gpu", "64gpu"},
		epochs:    3,
		evals:     4,
		perRank:   20_000,
		lrBase:    0.15,
		seqLen:    16,
		batch:     2,
		zipfExp:   1.2,
		branching: 16,
		paperNote: "paper (Fig 5): 1-epoch ppl 84.3/87.9/95.3 at 16/32/64 GPUs converging to 73.5/72.1/72.4 at epoch 2",
		paperGap:  "4–5% at epoch 1 → ≤1% later",
	}, opts)
}

func runFig8(opts Options) (*Report, error) {
	return runConvergence(convergenceConfig{
		modelCfg: model.Config{
			Vocab: 98, Dim: 16, Hidden: 24, RNN: model.KindRHN, RHNDepth: 2,
		},
		ranks:     []int{2, 4, 8},
		labels:    []string{"16gpu", "32gpu", "64gpu"},
		epochs:    3,
		evals:     4,
		perRank:   16_000,
		lrBase:    0.1,
		seqLen:    16,
		batch:     2,
		zipfExp:   1.0,
		branching: 8,
		paperNote: "paper (Fig 8): 16/32 GPU ppl gap 4% at epoch 1, 2% at epoch 2, 0.01% at epoch 4",
		paperGap:  "4% at epoch 1 → 0.01% at epoch 4, 16 vs 32 GPUs",
	}, opts)
}

// runFig7 trains the word LM under every §III-B seeding strategy at a fixed
// rank count and tabulates accuracy against the exchange volume the
// strategy buys, reproducing the Figure 7 trade-off.
func runFig7(opts Options) (*Report, error) {
	ranks := 8
	perRank := 16_000
	epochs := 2
	if opts.Quick {
		perRank = 4_000
		epochs = 1
	}
	train, valid := markovSplit(corpus.MarkovConfig{VocabSize: 499, Branching: 16, ZipfExponent: 1.2, Seed: opts.Seed},
		perRank*ranks+perRank, opts.Seed)

	strategies := append([]sampling.Strategy{}, sampling.Strategies()...)
	strategies = append(strategies, sampling.AllSame)

	tab := metrics.NewTable(
		fmt.Sprintf("Seeding strategies at %d ranks (standing in for 64 GPUs):", ranks),
		"strategy", "#seeds", "final ppl", "avg U_g (output emb)", "exchange rows vs G")
	notes := []string{
		"paper (Fig 7): G and Zipf's-freq overlap; fewer seeds destabilize accuracy (log10G worst); Zipf's-freq is pareto-optimal",
	}
	var pplG, pplZipf float64
	var ugG float64
	for _, strat := range strategies {
		cfg := trainer.Config{
			Model: model.Config{
				Vocab: 500, Dim: 20, Hidden: 28, RNN: model.KindLSTM, Sampled: 16,
			},
			Ranks:        ranks,
			BatchPerRank: 2,
			SeqLen:       12,
			LR:           0.25,
			SeedStrategy: strat,
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
		ppl := lastPPL(res.Evals)
		ug := res.Stats.AvgOutputUnique()
		switch strat {
		case sampling.AllDifferent:
			pplG, ugG = ppl, ug
		case sampling.ZipfFreq:
			pplZipf = ppl
		}
		ratio := "-"
		if ugG > 0 {
			ratio = fmt.Sprintf("%.2f", ug/ugG)
		}
		tab.AddRow(strat.String(),
			fmt.Sprintf("%d", strat.NumSeeds(ranks)),
			fmt.Sprintf("%.2f", ppl),
			fmt.Sprintf("%.0f", ug),
			ratio)
	}
	if pplG > 0 && pplZipf > 0 {
		notes = append(notes, fmt.Sprintf(
			"Zipf's-freq vs G perplexity: %.2f vs %.2f (%.1f%% apart; paper: 'similar perplexities')",
			pplZipf, pplG, 100*relGap(pplG, pplZipf)))
	}
	return &Report{Tables: []*metrics.Table{tab}, Notes: notes}, nil
}

// runBPC trains the char LM on the Amazon-review stand-in and reports bits
// per character, the §V-D comparison metric against [21].
func runBPC(opts Options) (*Report, error) {
	perRank := 24_000
	epochs := 3
	if opts.Quick {
		perRank = 6_000
		epochs = 1
	}
	d, err := corpus.DatasetByName("ar")
	if err != nil {
		return nil, err
	}
	// The paper splits ar 1000:1; at sample scale that leaves no usable
	// validation set, so the stand-in uses 10:1.
	train, valid := markovSplit(corpus.MarkovConfig{VocabSize: d.CharVocab, Branching: 8, ZipfExponent: 1.0, Seed: opts.Seed},
		perRank*4+perRank, opts.Seed)

	cfg := trainer.Config{
		Model: model.Config{
			Vocab: d.CharVocab + 1, Dim: 16, Hidden: 24, RNN: model.KindRHN, RHNDepth: 2,
		},
		Ranks:        4,
		BatchPerRank: 2,
		SeqLen:       16,
		LR:           0.1,
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

	tab := metrics.NewTable("Bits per character, Amazon-review stand-in:",
		"epoch", "BPC (measured)", "BPC (paper)", "BPC ([21], V100)")
	for i, ev := range res.Evals {
		paperStr, sotaStr := "-", "-"
		if i == 0 {
			paperStr, sotaStr = "1.208", "1.218"
		}
		if i == len(res.Evals)-1 && len(res.Evals) > 1 {
			paperStr = "1.11 (3 epochs)"
		}
		tab.AddRow(fmt.Sprintf("%.1f", ev.Epoch),
			fmt.Sprintf("%.3f", metrics.BPC(ev.Loss)),
			paperStr, sotaStr)
	}
	notes := []string{
		"paper: 1.208 BPC after 1 epoch on 64 Titan X vs 1.218 in [21] on 128 V100s (41× more FLOPs), improving to 1.11 by epoch 3",
		"measured BPC is on a synthetic corpus with a scaled-down model; the reproduced claim is monotone improvement over epochs",
	}
	if len(res.Evals) > 1 && metrics.BPC(res.FinalLoss) >= metrics.BPC(res.Evals[0].Loss) {
		notes = append(notes, "WARNING: BPC did not improve over epochs")
	}
	return &Report{Tables: []*metrics.Table{tab}, Notes: notes}, nil
}
