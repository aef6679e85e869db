// Command zipflm-serve exposes a checkpoint as a batched-inference HTTP
// service (internal/serve): dynamic batching on workers sharing one copy of
// the weights,
// bounded-queue admission control, Zipf-aware result/prefix caches, and
// zero-downtime weight reloads.
//
// Usage:
//
//	zipflm-train -input book.txt -save model.ckpt -save-vocab vocab.ckpt ...
//	zipflm-serve -model model.ckpt -vocab vocab.ckpt -addr :8080
//	curl -s localhost:8080/v1/generate -d '{"prompt":"the cat","n":24,"temperature":0.8,"seed":7}'
//	curl -s localhost:8080/v1/stats
//	curl -s localhost:8080/metrics
//	curl -s -X POST localhost:8080/v1/reload -d '{"path":"model-v2.ckpt"}'
//
// /metrics serves the shared telemetry registry in Prometheus text format,
// whatever the request's Accept header asks for. -metrics-addr is the
// observer listener (internal/telemetry's Start): the same endpoint plus
// net/http/pprof's /debug/pprof/, which the public -addr never serves —
//
//	go tool pprof http://<metrics-addr>/debug/pprof/profile
//	zipflm-top -addr <metrics-addr>
//
// -model is a checkpoint file (zipflm-train -save) or a checkpoint
// *directory* (zipflm-train -ckpt-dir), read through internal/ckpt: a
// directory serves its newest checkpoint, and a file that is not a whole,
// current checkpoint is refused. With -watch the server
// polls that directory and hot-reloads whenever training publishes a newer
// checkpoint — in-flight generations finish on the weights that admitted
// them, new requests get the new weights, nothing is dropped.
//
// On SIGINT/SIGTERM the server shuts down gracefully: admissions stop,
// queued and in-flight generations drain through the serve layer's
// ErrShutdown path (clean 503s, no severed connections), and the process
// exits 0.
//
// With -loadgen N the command skips HTTP entirely and drives the server
// in-process with the closed-loop Zipf load generator, printing the
// resulting throughput/latency/cache table — the quickest way to see the
// serving layer work.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"zipflm/internal/ckpt"
	"zipflm/internal/corpus"
	"zipflm/internal/metrics"
	"zipflm/internal/model"
	"zipflm/internal/sampling"
	"zipflm/internal/serve"
	"zipflm/internal/telemetry"
)

func main() {
	var (
		modelPath = flag.String("model", "", "checkpoint file or checkpoint directory (required)")
		vocabPath = flag.String("vocab", "", "vocabulary file (enables text prompts and word responses)")
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		workers   = flag.Int("workers", 1, "model replicas (one batcher each)")
		computeW  = flag.Int("compute-workers", 0, "goroutines per matmul and sampling pass, shared by every replica (0 or 1: serial; results identical at any value)")
		maxBatch  = flag.Int("max-batch", 16, "max sequences per batched step")
		queue     = flag.Int("queue", 64, "admission queue depth (full queue sheds)")
		cache     = flag.Int("cache", 1024, "result cache entries (0 disables)")
		prefixes  = flag.Int("prefix-cache", 256, "prefix cache entries (0 disables)")
		quantized = flag.Bool("quantized", false, "serve on int8 weights (deterministic; faster memory-bound decode)")
		watch     = flag.Duration("watch", 0, "poll the -model checkpoint directory at this interval and hot-reload new checkpoints (0 disables)")
		loadN     = flag.Int("loadgen", 0, "run N closed-loop requests in-process instead of serving HTTP")
		clients   = flag.Int("clients", 8, "loadgen concurrency")
		tokens    = flag.Int("tokens", 24, "loadgen tokens per request")
		zipfS     = flag.Float64("zipf", 1.1, "loadgen prompt-popularity exponent")
		seed      = flag.Uint64("seed", 42, "loadgen seed")
	)
	observe := telemetry.Options{Flight: telemetry.DefaultFlightEvents, Exported: true}
	observe.RegisterFlags(flag.CommandLine, true)
	flag.Parse()

	if *modelPath == "" {
		fatal(errors.New("-model is required"))
	}
	m, step, err := loadWeights(*modelPath)
	if err != nil {
		fatal(err)
	}

	var vocab *corpus.Vocabulary
	if *vocabPath != "" {
		vf, err := os.Open(*vocabPath)
		if err != nil {
			fatal(err)
		}
		vocab, err = corpus.LoadVocabulary(vf)
		vf.Close()
		if err != nil {
			fatal(err)
		}
		if vocab.Size() != m.Cfg.Vocab {
			fatal(fmt.Errorf("vocabulary size %d does not match model vocabulary %d", vocab.Size(), m.Cfg.Vocab))
		}
	}

	// The observers only read instruments: generated tokens are
	// bit-identical with every one of them running. They stop after the
	// serve layer drained, so the trace holds every request.
	obs, err := telemetry.Start("zipflm-serve", observe)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := obs.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "zipflm-serve: %v\n", err)
		}
	}()
	srv := serve.New(m, serve.Config{
		Workers:        *workers,
		ComputeWorkers: *computeW,
		MaxBatch:       *maxBatch,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		PrefixEntries:  *prefixes,
		Quantized:      *quantized,
		Telemetry:      obs.Registry,
		Tracer:         obs.Tracer,
		Flight:         obs.Flight,
	})
	defer srv.Close()

	if *loadN > 0 {
		runLoadgen(srv, m, *loadN, *clients, *tokens, *zipfS, *seed)
		return
	}

	weights := &weightsInfo{source: *modelPath, step: step, at: time.Now()}

	if *watch > 0 {
		if fi, err := os.Stat(*modelPath); err != nil || !fi.IsDir() {
			fatal(fmt.Errorf("-watch needs -model to be a checkpoint directory"))
		}
		d, err := ckpt.NewDir(*modelPath, 0, 0)
		if err != nil {
			fatal(err)
		}
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go watchLoop(srv, weights, d, *watch, stopWatch, os.Stderr)
	}

	mode := "fp32"
	if *quantized {
		mode = "int8"
	}
	fmt.Fprintf(os.Stderr, "zipflm-serve: listening on %s (vocab %d, %d workers × batch %d, queue %d, %s)\n",
		*addr, m.Cfg.Vocab, *workers, *maxBatch, *queue, mode)

	// Graceful shutdown: stop admitting, drain in-flight generations
	// through the serve layer's ErrShutdown path (handlers answer their
	// callers with clean 503s), then let the HTTP server finish writing
	// those responses and exit 0.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           newMux(srv, vocab, weights, obs),
		ReadHeaderTimeout: readHeaderTimeout,
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "zipflm-serve: %v: draining in-flight requests\n", sig)
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}()
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "zipflm-serve: drained, clean shutdown")
}

// Limits on what one client can make the public listener hold: a request body
// is cut off at maxBodyBytes (413) before any of it is decoded, and a
// client gets readHeaderTimeout to finish sending its request headers and
// then bodyReadTimeout to finish sending the body (408), so a slow client
// holds neither a handler nor Shutdown for longer.
const (
	maxBodyBytes      = 1 << 20
	readHeaderTimeout = 10 * time.Second
	bodyReadTimeout   = 5 * time.Second
)

// newMux routes the HTTP API onto the server, next to the observers'
// /metrics. It never serves /debug/pprof/: profiling
// stays on the -metrics-addr listener.
func newMux(srv *serve.Server, vocab *corpus.Vocabulary, weights *weightsInfo, obs *telemetry.Observers) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(statsJSON(srv.Stats(), weights, obs.Build))
	})
	obs.Handle(mux)
	mux.HandleFunc("/v1/generate", func(w http.ResponseWriter, r *http.Request) {
		handleGenerate(w, r, srv, vocab)
	})
	mux.HandleFunc("/v1/reload", func(w http.ResponseWriter, r *http.Request) {
		handleReload(w, r, srv, weights)
	})
	return mux
}

// decodeBody decodes a JSON request body of at most maxBodyBytes, sent
// within bodyReadTimeout, into v, answering 413, 408 or 400 itself when it
// cannot. The deadline is set on the connection and stays for the rest of
// the request, so the server's drain of an unread body after the handler is
// bounded too; the server sets its own before reading the next request. If
// it passes while the handler runs, the server's read-ahead fails and
// cancels the request's context, which no handler here watches. A
// ResponseWriter without a connection (a test's recorder) reads with no
// deadline.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	http.NewResponseController(w).SetReadDeadline(time.Now().Add(bodyReadTimeout))
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes), http.StatusRequestEntityTooLarge)
	case errors.Is(err, os.ErrDeadlineExceeded):
		http.Error(w, fmt.Sprintf("request body not received within %v", bodyReadTimeout), http.StatusRequestTimeout)
	default:
		http.Error(w, "bad json: "+err.Error(), http.StatusBadRequest)
	}
	return false
}

// loadWeights loads serving weights from a checkpoint file or a checkpoint
// directory (its newest checkpoint), with the training step they were
// captured at.
func loadWeights(path string) (*model.LM, int, error) {
	st, err := ckpt.Open(path)
	if err != nil {
		return nil, 0, err
	}
	m, err := st.LM()
	return m, st.Step, err
}

// weightsInfo tracks the provenance of the currently-served weights for
// /v1/stats (the weights version itself comes from the serve layer's
// Snapshot).
type weightsInfo struct {
	mu     sync.Mutex
	source string
	step   int // training step of the checkpoint
	at     time.Time
}

func (wi *weightsInfo) set(source string, step int) {
	wi.mu.Lock()
	defer wi.mu.Unlock()
	wi.source, wi.step, wi.at = source, step, time.Now()
}

func (wi *weightsInfo) get() (string, int, time.Time) {
	wi.mu.Lock()
	defer wi.mu.Unlock()
	return wi.source, wi.step, wi.at
}

// watchLoop hot-reloads each newer step of a checkpoint directory, listing
// the steps every poll and reading only a newer one's file; it logs to out.
func watchLoop(srv *serve.Server, weights *weightsInfo, d *ckpt.Dir, every time.Duration, stop <-chan struct{}, out io.Writer) {
	_, lastStep, _ := weights.get()
	lastFailure := "" // an unreadable checkpoint stays on disk: report it once, not every poll
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		steps, err := d.Steps()
		if err == nil && (len(steps) == 0 || steps[len(steps)-1] <= lastStep) {
			continue
		}
		var st *ckpt.State
		var m *model.LM
		if err == nil {
			if st, err = d.Load(steps[len(steps)-1]); err == nil {
				m, err = st.LM()
			}
		}
		if err != nil {
			if msg := err.Error(); msg != lastFailure {
				lastFailure = msg
				srv.ReloadFailed(fmt.Errorf("watch: %w", err))
				fmt.Fprintf(out, "zipflm-serve: watch: newest checkpoint unreadable: %v\n", err)
			}
			continue
		}
		lastStep = st.Step // a rejected step is not retried: the same file would be rejected again
		v, err := srv.Reload(m)
		if err != nil {
			fmt.Fprintf(out, "zipflm-serve: watch: reload rejected: %v\n", err)
			continue
		}
		weights.set(d.Path(), st.Step)
		fmt.Fprintf(out, "zipflm-serve: hot-reloaded checkpoint step %d (weights v%d)\n", st.Step, v)
	}
}

// genRequest is the /v1/generate request body.
type genRequest struct {
	Prompt      string  `json:"prompt,omitempty"`
	PromptIDs   []int   `json:"prompt_ids,omitempty"`
	N           int     `json:"n"`
	Temperature float64 `json:"temperature"`
	TopK        int     `json:"top_k,omitempty"`
	TopP        float64 `json:"top_p,omitempty"`
	Seed        uint64  `json:"seed"`
	TimeoutMS   int     `json:"timeout_ms,omitempty"`
}

// genResponse is the /v1/generate response body. latency_ms is in fractional
// milliseconds, as /v1/stats reports its quantiles, so a request served in
// under a millisecond does not read 0.
type genResponse struct {
	Tokens         []int   `json:"tokens"`
	Text           string  `json:"text,omitempty"`
	CacheHit       bool    `json:"cache_hit"`
	PrefixHit      bool    `json:"prefix_hit"`
	LatencyMS      float64 `json:"latency_ms"`
	WeightsVersion uint64  `json:"weights_version"`
}

func handleGenerate(w http.ResponseWriter, r *http.Request, srv *serve.Server, vocab *corpus.Vocabulary) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var in genRequest
	if !decodeBody(w, r, &in) {
		return
	}
	prompt := in.PromptIDs
	if in.Prompt != "" {
		if vocab == nil {
			http.Error(w, "text prompt needs the server started with -vocab; use prompt_ids", http.StatusBadRequest)
			return
		}
		prompt = vocab.Encode(corpus.Tokenize(in.Prompt))
	}
	if in.N == 0 {
		in.N = 24
	}
	req := serve.Request{
		Prompt: prompt,
		N:      in.N,
		Opts:   sampling.DecodeOpts{Temperature: in.Temperature, TopK: in.TopK, TopP: in.TopP},
		Seed:   in.Seed,
	}
	if in.TimeoutMS > 0 {
		req.Deadline = time.Now().Add(time.Duration(in.TimeoutMS) * time.Millisecond)
	}

	res, err := srv.Submit(req)
	switch {
	case err == nil:
	case err == serve.ErrOverloaded || err == serve.ErrShutdown:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err == serve.ErrDeadlineExceeded:
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	out := genResponse{
		Tokens:         res.Tokens,
		CacheHit:       res.CacheHit,
		PrefixHit:      res.PrefixHit,
		LatencyMS:      float64(res.Latency) / float64(time.Millisecond),
		WeightsVersion: res.WeightsVersion,
	}
	if vocab != nil {
		words := make([]string, len(res.Tokens))
		for i, id := range res.Tokens {
			words[i] = vocab.Word(id)
		}
		out.Text = strings.Join(words, " ")
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// reloadRequest is the /v1/reload request body; an empty path re-reads the
// currently-served source (e.g. a republished file or directory).
type reloadRequest struct {
	Path string `json:"path,omitempty"`
}

func handleReload(w http.ResponseWriter, r *http.Request, srv *serve.Server, weights *weightsInfo) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var in reloadRequest
	if r.ContentLength != 0 && !decodeBody(w, r, &in) {
		return
	}
	source, _, _ := weights.get()
	if in.Path != "" {
		source = in.Path
	}
	m, step, err := loadWeights(source)
	if err != nil {
		srv.ReloadFailed(err)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	v, err := srv.Reload(m)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	weights.set(source, step)
	fmt.Fprintf(os.Stderr, "zipflm-serve: reloaded %s (weights v%d)\n", source, v)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"weights_version": v,
		"source":          source,
		"checkpoint_step": step,
	})
}

// statsJSON flattens a Snapshot plus checkpoint and build metadata for
// /v1/stats.
func statsJSON(s serve.Snapshot, weights *weightsInfo, build telemetry.BuildInfo) map[string]any {
	source, step, at := weights.get()
	return map[string]any{
		"build":             build,
		"uptime_s":          s.Uptime.Seconds(),
		"accepted":          s.Accepted,
		"completed":         s.Completed,
		"shed":              s.Shed,
		"expired":           s.Expired,
		"expired_in_flight": s.ExpiredInFlight,
		"discarded_tokens":  s.DiscardedTokens,
		"tokens":            s.Tokens,
		"latency_p50_ms":    float64(s.LatencyP50) / float64(time.Millisecond),
		"latency_p99_ms":    float64(s.LatencyP99) / float64(time.Millisecond),
		"latency_mean_ms":   float64(s.LatencyMean) / float64(time.Millisecond),
		"mean_batch":        s.MeanBatch,
		"batch_dist":        s.BatchDist,
		"result_hits":       s.ResultHits,
		"result_misses":     s.ResultMisses,
		"result_entries":    s.ResultEntries,
		"prefix_hits":       s.PrefixHits,
		"prefix_misses":     s.PrefixMisses,
		"prefix_entries":    s.PrefixEntries,
		"hit_rate":          s.HitRate(),
		"weights_version":   s.WeightsVersion,
		"reloads":           s.Reloads,
		"quantized":         s.Quantized,
		"checkpoint": map[string]any{
			"source":    source,
			"step":      step,
			"loaded_at": at.UTC().Format(time.RFC3339),
		},
	}
}

// runLoadgen drives the server in-process and prints the serving table.
func runLoadgen(srv *serve.Server, m *model.LM, requests, clients, tokens int, zipfS float64, seed uint64) {
	rep := serve.RunLoad(srv, serve.LoadConfig{
		Clients:  clients,
		Requests: requests,
		Vocab:    m.Cfg.Vocab,
		Tokens:   tokens,
		ZipfS:    zipfS,
		Opts:     sampling.DecodeOpts{Temperature: 0.8},
		Seed:     seed,
	})
	snap := srv.Stats()
	tab := metrics.NewTable(fmt.Sprintf("Closed-loop load: %d requests, %d clients:", requests, clients),
		"completed", "shed", "throughput", "rate", "p50", "p99", "mean batch", "hit rate")
	tab.SetUnits("", "", "tok/s", "req/s", "ms", "ms", "seq/step", "%")
	tab.AddRow(
		fmt.Sprintf("%d", rep.Completed),
		fmt.Sprintf("%d", rep.Shed),
		fmt.Sprintf("%.0f", rep.TokensPerSecond()),
		fmt.Sprintf("%.1f", rep.RequestsPerSecond()),
		fmt.Sprintf("%.2f", float64(snap.LatencyP50)/float64(time.Millisecond)),
		fmt.Sprintf("%.2f", float64(snap.LatencyP99)/float64(time.Millisecond)),
		fmt.Sprintf("%.2f", snap.MeanBatch),
		fmt.Sprintf("%.0f", 100*snap.HitRate()),
	)
	fmt.Print(tab)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "zipflm-serve: %v\n", err)
	os.Exit(1)
}
