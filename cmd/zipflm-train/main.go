// Command zipflm-train trains a word- or character-level language model on
// a text file (or a synthetic corpus) across a simulated GPU cluster, with
// the paper's exchange strategies selectable from the command line.
//
// Usage:
//
//	zipflm-train -input corpus.txt -level word -ranks 8 -epochs 2
//	zipflm-train -synthetic 200000 -level char -ranks 4 -exchange baseline
//	zipflm-train -synthetic 100000 -sampled 64 -seeding zipf -fp16
//
// Observability (internal/telemetry's Start): -metrics-addr serves the
// run's telemetry registry at /metrics (Prometheus text format) while
// training, and net/http/pprof at /debug/pprof/; watch it with zipflm-top
// -addr <metrics-addr>. -trace FILE writes a
// Chrome trace_event JSON timeline (load it in chrome://tracing or
// Perfetto) whose spans carry both wall time and the simulated cluster's
// virtual clock; -flight N keeps a bounded in-memory ring of the last N
// anomaly log records, dumped to stderr on fault rollback or SIGQUIT.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"zipflm/internal/ckpt"
	"zipflm/internal/collective"
	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/half"
	"zipflm/internal/metrics"
	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/sampling"
	"zipflm/internal/telemetry"
	"zipflm/internal/trainer"
)

func main() {
	var (
		input     = flag.String("input", "", "path to a UTF-8 text file (omit to use -synthetic)")
		synthetic = flag.Int("synthetic", 0, "generate this many synthetic Zipfian tokens instead of reading a file")
		level     = flag.String("level", "word", "tokenization level: word or char")
		vocabSize = flag.Int("vocab", 2000, "vocabulary cap (most frequent tokens)")
		ranks     = flag.Int("ranks", 4, "simulated GPU count")
		batch     = flag.Int("batch", 4, "sequences per rank per step")
		seqLen    = flag.Int("seq", 20, "tokens per sequence")
		dim       = flag.Int("dim", 32, "embedding dimension D")
		hidden    = flag.Int("hidden", 48, "RNN cells")
		rnn       = flag.String("rnn", "lstm", "recurrent core: lstm or rhn")
		rhnDepth  = flag.Int("rhn-depth", 3, "RHN micro-layer depth")
		sampled   = flag.Int("sampled", 0, "sampled-softmax negatives per step (0 = full softmax)")
		exchange  = flag.String("exchange", "unique", "embedding exchange: unique or baseline")
		seeding   = flag.String("seeding", "zipf", "sampled-softmax seeds: g, same, log2, loge, log10, zipf")
		fp16      = flag.Bool("fp16", false, "FP16 wire compression with compression-scaling")
		scale     = flag.Float64("scale", 512, "compression-scaling factor F")
		lr        = flag.Float64("lr", 0.2, "base learning rate (scaled by ln(nodes) per the paper)")
		lrDecay   = flag.Float64("lr-decay", 0.9, "per-epoch learning-rate decay (paper: 0.85-0.95; 1 disables)")
		epochs    = flag.Int("epochs", 2, "training epochs")
		adam      = flag.Bool("adam", false, "use Adam instead of SGD for dense parameters")
		overlap   = flag.Bool("overlap", false, "reduce the dense gradients a layer per call instead of a tensor per call (same weights and wire bytes; fewer collective spans in a -trace; no virtual clock runs here, so nothing is priced as overlapped)")
		stateful  = flag.Bool("stateful", false, "carry RNN state across batches (truncated BPTT)")
		dropout   = flag.Float64("dropout", 0, "training dropout probability on RNN outputs")
		savePath  = flag.String("save", "", "write the trained model checkpoint to this file")
		saveVocab = flag.String("save-vocab", "", "write the vocabulary to this file (for zipflm-generate -prompt)")
		ckptDir   = flag.String("ckpt-dir", "", "write full-state checkpoints (weights, optimizer moments, step, RNG streams) into this directory")
		ckptEvery = flag.Int("ckpt-every", 0, "checkpoint every N global steps into -ckpt-dir (0 disables)")
		ckptKeep  = flag.Int("ckpt-keep", 3, "retention: keep the most recent N checkpoints")
		resume    = flag.String("resume", "", "resume full training state from the newest checkpoint in this directory (corpus flags and -seed must match the checkpointing run)")
		seed      = flag.Uint64("seed", 42, "reproducibility seed")
	)
	observe := telemetry.Options{Flight: telemetry.DefaultFlightEvents}
	observe.RegisterFlags(flag.CommandLine, true)
	flag.Parse()
	if f := float32(*scale); *fp16 && !(f > 0 && f <= math.MaxFloat32) {
		usageError("-scale %v: the FP16 compression-scaling factor must be positive and finite as a float32", *scale)
	}
	kind, ok := map[string]model.RNNKind{"lstm": model.KindLSTM, "rhn": model.KindRHN}[*rnn]
	if !ok {
		usageError("-rnn %q: want lstm or rhn", *rnn)
	}
	ex, ok := map[string]core.Exchanger{"unique": core.UniqueExchange{}, "baseline": core.BaselineAllGather{}}[*exchange]
	if !ok {
		usageError("-exchange %q: want unique or baseline", *exchange)
	}
	if *level != "word" && *level != "char" {
		usageError("-level %q: want word or char", *level)
	}
	strat, ok := map[string]sampling.Strategy{
		"g": sampling.AllDifferent, "same": sampling.AllSame, "log2": sampling.Log2G,
		"loge": sampling.LogEG, "log10": sampling.Log10G, "zipf": sampling.ZipfFreq,
	}[*seeding]
	if !ok {
		usageError("-seeding %q: want g, same, log2, loge, log10 or zipf", *seeding)
	}
	if *ckptEvery > 0 && *ckptDir == "" {
		usageError("-ckpt-every %d: needs -ckpt-dir", *ckptEvery)
	}

	stream, vocab, vv, err := loadStream(*input, *synthetic, *level, *vocabSize, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
		os.Exit(1)
	}
	train, valid := corpus.Split(stream, 10, 100, *seed)
	fmt.Printf("tokens: %d train / %d valid, vocabulary %d\n", len(train), len(valid), vocab)

	var wire collective.Wire
	if *fp16 {
		wire = half.NewScaler(float32(*scale))
	}
	sched := optim.Schedule{Base: *lr, GPUsPerNode: 8, Decay: 0.9}

	cfg := trainer.Config{
		Model: model.Config{
			Vocab: vocab, Dim: *dim, Hidden: *hidden,
			RNN: kind, RHNDepth: *rhnDepth, Sampled: *sampled,
			Stateful: *stateful, Dropout: *dropout,
		},
		Ranks:              *ranks,
		BatchPerRank:       *batch,
		SeqLen:             *seqLen,
		LR:                 sched.LR(*ranks, 0),
		LRDecay:            *lrDecay,
		Exchange:           ex,
		Wire:               wire,
		SeedStrategy:       strat,
		BaseSeed:           *seed,
		Overlap:            *overlap,
		CheckpointDir:      *ckptDir,
		CheckpointEvery:    *ckptEvery,
		CheckpointKeepLast: *ckptKeep,
	}
	if *adam {
		cfg.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }
	}

	// Purely observational: losses and weights are bit-identical with
	// every observer running.
	obs, err := telemetry.Start("zipflm-train", observe)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
		os.Exit(1)
	}
	cfg.Telemetry, cfg.Trace, cfg.Flight = obs.Registry, obs.Tracer, obs.Flight

	var tr *trainer.Trainer
	if *resume != "" {
		tr, err = trainer.Resume(cfg, *resume, train, valid)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("resumed from step %d (%s)\n", tr.Step(), *resume)
	} else {
		tr, err = trainer.New(cfg, train, valid)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("training: %d ranks × (%d seq × %d tokens), exchange=%s, lr=%.3f, %d steps/epoch\n",
		*ranks, *batch, *seqLen, ex.Name(), cfg.LR, tr.StepsPerEpoch())

	res, err := tr.Run(*epochs, 4)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
		os.Exit(1)
	}
	if err := obs.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
		os.Exit(1)
	}
	tab := metrics.NewTable("validation:", "epoch", "loss (nats)", "perplexity", "BPC")
	for _, ev := range res.Evals {
		tab.AddRow(fmt.Sprintf("%.2f", ev.Epoch),
			fmt.Sprintf("%.4f", ev.Loss),
			fmt.Sprintf("%.2f", ev.Perplexity),
			fmt.Sprintf("%.3f", metrics.BPC(ev.Loss)))
	}
	fmt.Print(tab)
	fmt.Printf("exchange traffic per rank: %s; avg unique words per step: input %.0f",
		metrics.HumanBytes(res.Stats.WireBytesPerRank), res.Stats.AvgInputUnique())
	if *sampled > 0 {
		fmt.Printf(", output %.0f", res.Stats.AvgOutputUnique())
	}
	fmt.Println()
	if err := tr.ReplicasInSync(); err != nil {
		fmt.Fprintf(os.Stderr, "zipflm-train: replica divergence: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("replicas in sync: ok")
	if *ckptEvery > 0 {
		fmt.Printf("full-state checkpoints: %d written to %s (resume with -resume %s)\n",
			tr.FaultStats().Checkpoints, *ckptDir, *ckptDir)
	}

	if *savePath != "" {
		st, err := tr.CaptureState()
		if err == nil {
			err = ckpt.WriteFile(*savePath, st)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint written to %s\n", *savePath)
	}
	if *saveVocab != "" {
		f, err := os.Create(*saveVocab)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
			os.Exit(1)
		}
		if err := vv.Save(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("vocabulary written to %s\n", *saveVocab)
	}
}

// usageError reports a flag value the command cannot run with: one line on
// stderr and exit status 2, the flag package's status for a usage error.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "zipflm-train: "+format+"\n", args...)
	os.Exit(2)
}

// loadStream builds the token stream either from a file or synthetically,
// returning the ids, vocabulary size, and the vocabulary itself.
func loadStream(path string, synthetic int, level string, vocabCap int, seed uint64) ([]int, int, *corpus.Vocabulary, error) {
	if path != "" {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, nil, err
		}
		var toks []string
		if level == "char" {
			toks = corpus.CharTokens(string(raw))
		} else {
			toks = corpus.Tokenize(string(raw))
		}
		if len(toks) < 1000 {
			return nil, 0, nil, fmt.Errorf("input has only %d tokens; need at least 1000", len(toks))
		}
		v := corpus.BuildVocabulary(toks, vocabCap)
		ids := v.Encode(toks)
		fmt.Printf("coverage of %d-token vocabulary: %.1f%%\n", v.Size(), 100*v.CoverageOf(ids))
		return ids, v.Size(), v, nil
	}
	if synthetic <= 0 {
		return nil, 0, nil, fmt.Errorf("provide -input FILE or -synthetic N")
	}
	exp := 1.2
	vocab := vocabCap
	if level == "char" {
		exp = 1.0
		if vocab > 99 {
			vocab = 99
		}
	}
	gen := corpus.NewGenerator(corpus.GeneratorConfig{
		VocabSize:    vocab - 1,
		ZipfExponent: exp,
		Seed:         seed,
	})
	return gen.Stream(synthetic), vocab, corpus.SyntheticVocabulary(vocab - 1), nil
}
