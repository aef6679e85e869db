// Package serve is the batched inference serving layer: the production
// shape behind the ROADMAP's "serve heavy traffic" goal, built on the same
// Zipf insight the paper (conf_ipps_PatwaryCJHDC19) exploits for training.
//
// Architecture:
//
//   - A bounded admission queue with backpressure: when it is full,
//     requests are shed immediately (ErrOverloaded) instead of piling up
//     goroutines; requests whose deadline passes before service are shed
//     with ErrDeadlineExceeded.
//
//   - Workers sharing one copy of the weights, each running a continuous
//     dynamic batcher: it advances up to MaxBatch sequences per forward step
//     through its own model.Stepper, admitting new requests into free slots
//     between steps and retiring finished ones, so ragged prompts and
//     different lengths never stall the batch (no head-of-line blocking). A
//     step advances every sequence's cell but computes logits only for the
//     sequences that sample a token in it: a prompt costs cell steps and one
//     logits row, so a cache miss costs N logits rows, not P+N−1.
//
//   - Zipf-aware caching: an LRU result cache short-circuits repeated
//     requests entirely, and an LRU prefix cache snapshots post-prompt
//     recurrent states so repeated prompts skip prefill (see cache.go).
//
// The correctness contract, enforced by the tests: every response is
// bit-identical to what sequential model.Generate would produce for that
// request with the same per-request RNG seed, regardless of batch
// composition, scheduling, or cache hits. This falls out of the model
// layer's row-independence guarantee (model.Stepper) plus determinism of
// the per-request sampling RNG.
package serve

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"zipflm/internal/model"
	"zipflm/internal/sampling"
	"zipflm/internal/telemetry"
	"zipflm/internal/tensor"
)

var (
	// ErrOverloaded: the admission queue was full (backpressure shed).
	ErrOverloaded = errors.New("serve: overloaded, request shed")
	// ErrDeadlineExceeded: the request's deadline passed before a worker
	// could start it.
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded before service")
	// ErrShutdown: the server was closed before or during the request.
	ErrShutdown = errors.New("serve: server closed")
)

// Request is one generation call.
type Request struct {
	// Prompt is the non-empty token-id prompt.
	Prompt []int
	// N is the number of tokens to generate (≥ 1).
	N int
	// Opts selects temperature / top-k / top-p decoding.
	Opts sampling.DecodeOpts
	// Seed seeds this request's private sampling RNG — the determinism
	// handle: (Prompt, N, Opts, Seed) fully determines Tokens.
	Seed uint64
	// Deadline, when non-zero, bounds the request's lifetime: it is shed
	// at admission if already past, and abandoned mid-generation at the
	// first step boundary after it passes (partial output discarded) — a
	// disconnected caller cannot wedge a batch slot.
	Deadline time.Time
}

// Result is a completed generation.
type Result struct {
	// Tokens is the generated continuation (caller-owned copy).
	Tokens []int
	// CacheHit: served from the result cache without touching a worker.
	CacheHit bool
	// PrefixHit: prefill was skipped via the prefix cache.
	PrefixHit bool
	// Latency is submit-to-completion wall time.
	Latency time.Duration
	// WeightsVersion identifies the weights generation that produced the
	// tokens (1 = the model the server started with; each Reload
	// increments it). Tokens are bit-identical to sequential
	// model.Generate on that generation's weights.
	WeightsVersion uint64
}

// Config tunes a Server.
type Config struct {
	// Workers is the number of batcher goroutines (default 1). They share
	// one copy of the weights, each stepping it through its own scratch.
	Workers int
	// ComputeWorkers selects the tensor backend the weights compute with: > 1
	// tiles every forward-step matmul across that many goroutines (one
	// shared tensor.Parallel for the whole server) and has them sample the
	// batch's sequences side by side after each step. 0 and 1 give the
	// serial reference. Responses are bit-identical at every setting — the
	// backend contract — so this is purely a latency/throughput knob.
	ComputeWorkers int
	// MaxBatch is the per-worker concurrent-sequence bound (default 8).
	MaxBatch int
	// QueueDepth bounds the admission queue; a full queue sheds
	// (default 2 × Workers × MaxBatch).
	QueueDepth int
	// CacheEntries bounds the result cache; 0 disables it.
	CacheEntries int
	// PrefixEntries bounds the prefix cache; 0 disables it.
	PrefixEntries int
	// MaxTokens caps Request.N (default 4096): a batch slot is a scarce
	// resource, so one request must not be able to hold it for an
	// unbounded generation.
	MaxTokens int
	// MaxPromptLen caps prompt length (default 4096), bounding prefill
	// work per request.
	MaxPromptLen int
	// Quantized converts the served weights' inference path to int8
	// (model.LM.QuantizeWeights) — single-token decode is memory-bound, so
	// 4× smaller weight reads raise tok/s. Responses remain deterministic
	// (bit-identical to sequential Generate on the quantized model) but
	// differ from FP32 responses by design.
	Quantized bool
	// Telemetry, when non-nil, is the registry the server records into —
	// share one across subsystems to serve a single /metrics endpoint.
	// When nil the server creates a private registry, so Stats always
	// reads from registry instruments either way (Telemetry() exposes it).
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, records per-request spans (queue, prefill,
	// decode) and shed/expire instants. Purely observational: responses
	// are bit-identical with tracing on or off.
	Tracer *telemetry.Tracer
	// Flight, when non-nil, is the structured flight recorder overload
	// anomalies are logged into: sheds and expiries record context, and a
	// queue-full shed triggers a (rate-limited) ring dump. Purely
	// observational, like Tracer.
	Flight *telemetry.Flight
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers * c.MaxBatch
	}
	if c.MaxTokens <= 0 {
		c.MaxTokens = 4096
	}
	if c.MaxPromptLen <= 0 {
		c.MaxPromptLen = 4096
	}
	return c
}

// task is a queued request plus its completion channel.
type task struct {
	req       Request
	prefix    bool      // served via prefix cache
	submitted time.Time // when Submit enqueued it (queue-span start)
	done      chan taskDone
}

type taskDone struct {
	tokens  []int
	version uint64 // weights generation that produced the tokens
	err     error
}

// Server is the serving subsystem: admission queue, workers, caches, stats.
type Server struct {
	cfg     Config
	vocab   int // immutable copy of the model vocabulary (Reload preserves it)
	queue   chan *task
	stop    chan struct{}
	wg      sync.WaitGroup
	mu      sync.RWMutex // guards closed + enqueue-vs-Close ordering
	closed  bool
	stats   *statsCollector
	reg     *telemetry.Registry
	tracer  *telemetry.Tracer
	flight  *telemetry.Flight
	results *lruCache
	prefix  *lruCache
	workers []*worker
	// backend is the tensor backend the served weights compute with, built
	// once from Config.ComputeWorkers. Reloaded weights get it too, so a
	// reload never silently changes the compute path.
	backend tensor.Backend
	// version is the current weights generation; reloadMu serializes
	// Reload calls so versions hand out monotonically with their weights.
	version  atomic.Uint64
	reloads  atomic.Int64
	reloadMu sync.Mutex
	// reloadFailures counts reloads that never installed (ReloadFailed).
	reloadFailures *telemetry.Counter
	// closeOnce runs shutdown once; every Close waits for it to finish.
	closeOnce sync.Once
}

// New builds a Server over the given model. The model is cloned once and
// every worker steps that copy; the caller's model is not retained and stays
// free for training or evaluation.
func New(m *model.LM, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Telemetry
	if reg == nil {
		// A private registry keeps the registry-backed stats path uniform;
		// recording is a few atomics, so the unexported default costs no
		// more than dedicated counters would.
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:     cfg,
		vocab:   m.Cfg.Vocab,
		queue:   make(chan *task, cfg.QueueDepth),
		stop:    make(chan struct{}),
		stats:   newStatsCollector(cfg.MaxBatch, reg),
		reg:     reg,
		tracer:  cfg.Tracer,
		flight:  cfg.Flight,
		results: newLRUCache(cfg.CacheEntries),
		prefix:  newLRUCache(cfg.PrefixEntries),

		reloadFailures: reg.Counter("zipflm_serve_reload_failures_total"),
	}
	s.version.Store(1)
	// Cache counters live in the LRUs and the queue depth in the channel;
	// fold them into the registry at scrape time rather than on every
	// operation.
	var (
		qDepth    = reg.Gauge("zipflm_serve_queue_depth")
		rHits     = reg.Gauge("zipflm_serve_result_cache_hits")
		rMisses   = reg.Gauge("zipflm_serve_result_cache_misses")
		weightVer = reg.Gauge("zipflm_serve_weights_version")
	)
	reg.OnCollect(func() {
		qDepth.SetInt(int64(len(s.queue)))
		h, miss, _, _ := s.results.counters()
		rHits.SetInt(int64(h))
		rMisses.SetInt(int64(miss))
		weightVer.SetInt(int64(s.version.Load()))
	})
	s.backend = tensor.New(cfg.ComputeWorkers)
	served := s.clone(m)
	for i := 0; i < cfg.Workers; i++ {
		w := newWorker(s, served)
		w.id = i
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.loop()
		}()
	}
	return s
}

// clone copies m into the server's weights for one generation: the server's
// backend, and an int8 inference path when Config.Quantized is set. Every
// worker steps the same clone, and no later write to m reaches it.
func (s *Server) clone(m *model.LM) *model.LM {
	c := m.Clone()
	c.SetBackend(s.backend)
	if s.cfg.Quantized {
		c.QuantizeWeights()
	}
	return c
}

// Reload swaps the serving weights with zero downtime: each worker keeps
// generating with its current weights until every in-flight sequence it
// holds has retired, then installs the new weights at a step boundary and
// resumes admitting. In-flight sequences therefore finish on the weights
// that admitted them, new admissions get the new ones, and nothing is
// dropped. Both caches are versioned, so entries produced by older weights
// can never answer newer requests. The new weights generation number is
// returned; Result.WeightsVersion reports which generation served each
// request.
//
// The architecture must match the serving model's (same shapes) — a reload
// is a weights update, not a model swap.
func (s *Server) Reload(m *model.LM) (uint64, error) {
	if err := s.checkReload(m); err != nil {
		s.ReloadFailed(err)
		return 0, err
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	v := s.version.Add(1)
	p := &pendingModel{m: s.clone(m), version: v}
	for _, w := range s.workers {
		w.pending.Store(p)
	}
	// Drop the old weights' cached work eagerly; the per-entry version
	// tags are what guarantee correctness for anything that races in.
	s.results.reset()
	s.prefix.reset()
	s.reloads.Add(1)
	return v, nil
}

// checkReload rejects weights that are not an update of what is serving.
func (s *Server) checkReload(m *model.LM) error {
	a, cur := m.Cfg, s.workers[0].arch // arch is immutable after New
	if a.Vocab != cur.Vocab || a.Dim != cur.Dim || a.Hidden != cur.Hidden ||
		a.RNN != cur.RNN || a.RHNDepth != cur.RHNDepth {
		return fmt.Errorf("serve: reload architecture %+v does not match serving %+v", a, cur)
	}
	return nil
}

// ReloadFailed makes a reload that never installed visible: it counts one
// in zipflm_serve_reload_failures_total and records the cause in the flight
// ring. Reload calls it for the weights it rejects; callers report the
// failures that happen before it — a source that cannot be read or does not
// parse.
func (s *Server) ReloadFailed(cause error) {
	s.reloadFailures.Inc()
	s.flight.Record(slog.LevelError, "weights reload failed", "cause", cause.Error(),
		"weights_version", s.version.Load())
}

// validate rejects malformed requests before they cost anything.
func (s *Server) validate(req Request, vocab int) error {
	if len(req.Prompt) == 0 {
		return errors.New("serve: empty prompt")
	}
	if len(req.Prompt) > s.cfg.MaxPromptLen {
		return fmt.Errorf("serve: prompt length %d exceeds limit %d", len(req.Prompt), s.cfg.MaxPromptLen)
	}
	if req.N <= 0 {
		return fmt.Errorf("serve: n must be positive, got %d", req.N)
	}
	if req.N > s.cfg.MaxTokens {
		return fmt.Errorf("serve: n %d exceeds limit %d", req.N, s.cfg.MaxTokens)
	}
	for _, id := range req.Prompt {
		if id < 0 || id >= vocab {
			return fmt.Errorf("serve: prompt token %d outside vocabulary %d", id, vocab)
		}
	}
	return req.Opts.Validate()
}

// Submit runs one request to completion (closed-loop callers block here).
// It returns ErrOverloaded when the admission queue is full,
// ErrDeadlineExceeded when the deadline passed before service, ErrShutdown
// when the server closes mid-request, and validation errors verbatim.
func (s *Server) Submit(req Request) (*Result, error) {
	start := time.Now()
	if err := s.validate(req, s.vocab); err != nil {
		return nil, err
	}
	// An already-expired deadline is shed before anything else — including
	// the result cache, so callers see the same outcome for an expired
	// request whether or not it happens to be hot.
	if !req.Deadline.IsZero() && start.After(req.Deadline) {
		s.stats.onShed(true)
		s.tracer.Instant("serve", "expired", 0, start, 0)
		s.flight.Record(slog.LevelWarn, "request expired at admission",
			"deadline_ago", start.Sub(req.Deadline).String(), "n", req.N, "prompt_len", len(req.Prompt))
		return nil, ErrDeadlineExceeded
	}

	// Result-cache fast path: a hot request never touches a worker. With
	// the cache disabled, skip the key construction too — the uncached
	// configurations must not pay for bookkeeping they never use. Entries
	// are tagged with the weights generation that produced them: a stale
	// entry (pre-reload weights) is a miss, never a wrong answer.
	var key string
	if s.results != nil {
		key = resultKey(req.Prompt, req.N, req.Opts, req.Seed)
		cur := s.version.Load()
		if val, ok := s.results.getIf(key, func(v any) bool {
			return v.(*resultEntry).version == cur
		}); ok {
			entry := val.(*resultEntry)
			tokens := append([]int(nil), entry.tokens...)
			lat := time.Since(start)
			s.stats.onComplete(len(tokens), lat)
			return &Result{Tokens: tokens, CacheHit: true, Latency: lat, WeightsVersion: entry.version}, nil
		}
	}

	t := &task{req: req, submitted: start, done: make(chan taskDone, 1)}

	// Enqueue under the read lock so Close (write lock) can guarantee no
	// task lands in the queue after the final drain.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, ErrShutdown
	}
	select {
	case s.queue <- t:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.stats.onShed(false)
		s.tracer.Instant("serve", "shed", 0, time.Now(), 0)
		s.flight.Record(slog.LevelWarn, "request shed: queue full",
			"queue_depth", s.cfg.QueueDepth, "n", req.N, "prompt_len", len(req.Prompt))
		s.flight.Trigger("overload-shed")
		return nil, ErrOverloaded
	}

	d := <-t.done
	if d.err != nil {
		return nil, d.err
	}
	lat := time.Since(start)
	s.stats.onComplete(len(d.tokens), lat)
	if s.results != nil {
		s.results.put(key, &resultEntry{version: d.version, tokens: d.tokens})
	}
	res := &Result{Tokens: append([]int(nil), d.tokens...), PrefixHit: t.prefix, Latency: lat, WeightsVersion: d.version}
	return res, nil
}

// Stats returns current serving telemetry.
func (s *Server) Stats() Snapshot {
	snap := s.stats.snapshot()
	snap.ResultHits, snap.ResultMisses, snap.ResultEvicted, snap.ResultEntries = s.results.counters()
	snap.PrefixHits, snap.PrefixMisses, snap.PrefixEvicted, snap.PrefixEntries = s.prefix.counters()
	snap.WeightsVersion = s.version.Load()
	snap.Reloads = s.reloads.Load()
	snap.Quantized = s.cfg.Quantized
	return snap
}

// Close stops the workers and fails any queued or in-flight request with
// ErrShutdown. It is idempotent, and safe to call concurrently: every call
// returns only once the workers have exited and the queue is drained.
func (s *Server) Close() { s.closeOnce.Do(s.shutdown) }

// shutdown is Close's one run.
func (s *Server) shutdown() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	close(s.stop)
	s.wg.Wait()
	// No Submit can be enqueueing now (closed was set under the write
	// lock), so one final drain sheds everything that raced in.
	for {
		select {
		case t := <-s.queue:
			t.done <- taskDone{err: ErrShutdown}
		default:
			return
		}
	}
}
