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
// Observability: -metrics-addr serves the run's telemetry registry at
// /metrics (Prometheus text format) while training; -trace FILE writes a
// Chrome trace_event JSON timeline (load it in chrome://tracing or
// Perfetto) whose spans carry both wall time and the simulated cluster's
// virtual clock; -flight N keeps a bounded in-memory ring of the last N
// anomaly log records, dumped to stderr on fault rollback or SIGQUIT.
package main

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"

	"zipflm/internal/collective"
	"zipflm/internal/compress"
	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/dash"
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
		compFlag  = flag.String("compress", "none", "dense-gradient compression: none, topk (error-feedback sparsification) or q8 (8-bit stochastic quant)")
		compRatio = flag.Float64("compress-ratio", 0.01, "top-k fraction of entries sent per tensor per step")
		compMom   = flag.Float64("compress-momentum", 0.9, "DGC momentum correction for top-k (0 disables)")
		compZipf  = flag.Bool("compress-zipf", false, "tune the embedding-class top-k ratio from the corpus's type-token law")
		lr        = flag.Float64("lr", 0.2, "base learning rate (scaled by ln(nodes) per the paper)")
		lrDecay   = flag.Float64("lr-decay", 0.9, "per-epoch learning-rate decay (paper: 0.85-0.95; 1 disables)")
		epochs    = flag.Int("epochs", 2, "training epochs")
		adam      = flag.Bool("adam", false, "use Adam instead of SGD for dense parameters")
		overlap   = flag.Bool("overlap", false, "reduce each dense layer's gradients on the communicator's side lane while backprop continues (same weights and wire bytes, less waiting)")
		stateful  = flag.Bool("stateful", false, "carry RNN state across batches (truncated BPTT)")
		dropout   = flag.Float64("dropout", 0, "training dropout probability on RNN outputs")
		savePath  = flag.String("save", "", "write the trained model checkpoint to this file")
		saveVocab = flag.String("save-vocab", "", "write the vocabulary to this file (for zipflm-generate -prompt)")
		ckptDir   = flag.String("ckpt-dir", "", "write full-state checkpoints (weights, optimizer moments, step, RNG streams) into this directory")
		ckptEvery = flag.Int("ckpt-every", 0, "checkpoint every N global steps into -ckpt-dir (0 disables)")
		ckptKeep  = flag.Int("ckpt-keep", 3, "retention: keep the most recent N checkpoints")
		resume    = flag.String("resume", "", "resume full training state from the newest checkpoint in this directory (corpus flags and -seed must match the checkpointing run)")
		seed      = flag.Uint64("seed", 42, "reproducibility seed")
		workers   = flag.Int("workers", 0, "goroutines per matmul (0: ZIPFLM_WORKERS or serial; losses and weights identical at any value)")
		metricsAt = flag.String("metrics-addr", "", "serve Prometheus /metrics on this address during training (empty disables)")
		tracePath = flag.String("trace", "", "write a Chrome trace_event JSON timeline to this file on exit (empty disables)")
		flightCap = flag.Int("flight", telemetry.DefaultFlightEvents, "flight-recorder ring capacity; dumped on fault rollback or SIGQUIT (0 disables)")
		dashboard = flag.Bool("dashboard", false, "render a live ANSI dashboard of training telemetry on stderr (stdout keeps the tables)")
		histPath  = flag.String("history", "", "sample the telemetry registry every -history-interval into a ring and write the series as JSON to this file on exit")
		histEvery = flag.Duration("history-interval", telemetry.DefaultHistoryInterval, "metrics-history sampling interval (with -history)")
		profDir   = flag.String("profile-dir", "", "continuously capture CPU+heap pprof profiles into this directory on -profile-interval, indexed by profiles.json")
		profEvery = flag.Duration("profile-interval", 30*time.Second, "continuous-profiling capture interval (with -profile-dir)")
	)
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

	stream, vocab, vv, err := loadStream(*input, *synthetic, *level, *vocabSize, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
		os.Exit(1)
	}
	train, valid := corpus.Split(stream, 10, 100, *seed)
	fmt.Printf("tokens: %d train / %d valid, vocabulary %d\n", len(train), len(valid), vocab)

	strat, err := parseSeeding(*seeding)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
		os.Exit(1)
	}
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
		Ranks:        *ranks,
		BatchPerRank: *batch,
		SeqLen:       *seqLen,
		LR:           sched.LR(*ranks, 0),
		LRDecay:      *lrDecay,
		Exchange:     ex,
		Wire:         wire,
		SeedStrategy: strat,
		BaseSeed:     *seed,
		Workers:      *workers,
		Overlap:      *overlap,
	}
	if *adam {
		cfg.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }
	}
	switch *compFlag {
	case "none":
	case "topk", "q8":
		cc := &compress.Config{Ratio: *compRatio, Momentum: *compMom}
		if *compFlag == "topk" {
			cc.Method = compress.MethodTopK
		} else {
			cc.Method = compress.MethodQuant8
			cc.Stochastic = true
		}
		if *compZipf {
			if cc.Method != compress.MethodTopK {
				// The Zipf-derived ratio only steers top-k selection;
				// quantization has no per-tensor ratio to tune, so
				// pretending the flag applied would be misleading.
				fmt.Fprintln(os.Stderr, "zipflm-train: -compress-zipf only applies to -compress topk")
				os.Exit(1)
			}
			globalBatch := *ranks * *batch * *seqLen
			if err := cc.ZipfTune(train, vocab, globalBatch); err != nil {
				fmt.Fprintf(os.Stderr, "zipflm-train: -compress-zipf: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("compression: zipf-tuned embedding ratio %.3f (rank-frequency α = %.2f)\n",
				cc.EmbedRatio, cc.RankAlpha)
		}
		cfg.Compress = cc
	default:
		fmt.Fprintf(os.Stderr, "zipflm-train: unknown -compress %q (none, topk, q8)\n", *compFlag)
		os.Exit(1)
	}
	cfg.CheckpointDir = *ckptDir
	cfg.CheckpointEvery = *ckptEvery
	cfg.CheckpointKeepLast = *ckptKeep
	if *ckptEvery > 0 && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "zipflm-train: -ckpt-every needs -ckpt-dir")
		os.Exit(1)
	}

	var tracer *telemetry.Tracer
	if *metricsAt != "" || *tracePath != "" || *dashboard || *histPath != "" {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if cfg.Telemetry != nil {
		telemetry.PublishBuildInfo(cfg.Telemetry)
	}
	if *tracePath != "" {
		tracer = telemetry.NewTracer(0)
		cfg.Trace = tracer
		if cfg.Telemetry != nil {
			cfg.Telemetry.ObserveTracer(tracer)
		}
	}
	var stopFlight func()
	cfg.Flight, stopFlight = telemetry.StartFlight(*flightCap)
	defer stopFlight()
	if *metricsAt != "" {
		go func() {
			fmt.Fprintf(os.Stderr, "zipflm-train: metrics on http://%s/metrics\n", *metricsAt)
			// ReadHeaderTimeout: a client that never finishes its request
			// line must not hold a connection for the whole training run.
			lis := &http.Server{Addr: *metricsAt, Handler: telemetry.Handler(cfg.Telemetry), ReadHeaderTimeout: 10 * time.Second}
			if err := lis.ListenAndServe(); err != nil {
				fmt.Fprintf(os.Stderr, "zipflm-train: metrics listener: %v\n", err)
			}
		}()
	}

	// The performance observatory: metrics history on both clocks (the
	// virtual axis reads the simulated cluster's clock gauge), scheduled
	// pprof capture, and the live dashboard on stderr. Purely
	// observational — losses and weights are bit-identical with all of
	// them enabled.
	var history *telemetry.History
	if *histPath != "" {
		simClock := cfg.Telemetry.Gauge("zipflm_train_sim_seconds")
		history = telemetry.NewHistory(cfg.Telemetry, telemetry.HistoryConfig{
			Interval: *histEvery,
			VClock:   simClock.Value,
		})
		stopHistory := history.Start()
		defer func() {
			stopHistory()
			f, err := os.Create(*histPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "zipflm-train: history: %v\n", err)
				return
			}
			defer f.Close()
			if err := history.WriteJSON(f); err != nil {
				fmt.Fprintf(os.Stderr, "zipflm-train: history: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "zipflm-train: wrote %d history samples to %s\n", history.Len(), *histPath)
		}()
	}
	_, stopProfiler, err := telemetry.StartProfiler("zipflm-train", *profDir, *profEvery)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiler()
	if *dashboard {
		defer dash.Start(os.Stderr, "zipflm-train", cfg.Telemetry.Snapshot)()
	}

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
	if *tracePath != "" {
		if err := tracer.WriteFile(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s (%d events)\n", *tracePath, tracer.Len())
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
		f, err := os.Create(*savePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
			os.Exit(1)
		}
		if err := tr.Model(0).Save(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "zipflm-train: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
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

func parseSeeding(s string) (sampling.Strategy, error) {
	switch s {
	case "g":
		return sampling.AllDifferent, nil
	case "same":
		return sampling.AllSame, nil
	case "log2":
		return sampling.Log2G, nil
	case "loge":
		return sampling.LogEG, nil
	case "log10":
		return sampling.Log10G, nil
	case "zipf":
		return sampling.ZipfFreq, nil
	}
	return 0, fmt.Errorf("unknown seeding strategy %q", s)
}
