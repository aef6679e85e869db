package serve

import (
	"log/slog"
	"runtime"
	"sync/atomic"
	"time"

	"zipflm/internal/model"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
	"zipflm/internal/tensor"
)

// seq is one request in flight on a worker: its explicit recurrent state,
// its private sampling RNG, and its progress. The feeding schedule mirrors
// sequential model.Generate exactly — tokens fed are prompt[0..P-1] then
// out[0..N-2], and one RNG variate is drawn per emitted token — so the
// token stream is bit-identical to the sequential path by construction.
type seq struct {
	t     *task
	state *model.GenState
	r     *rng.RNG
	fed   int   // tokens fed so far (prompt first, then own output)
	out   []int // generated tokens
	// Trace timestamps, populated only when the server has a tracer:
	// admitted ends the queue span; prefillEnd splits prefill from decode.
	admitted   time.Time
	prefillEnd time.Time
}

// nextInput returns the token this sequence feeds on the next step.
func (q *seq) nextInput() int {
	if q.fed < len(q.t.req.Prompt) {
		return q.t.req.Prompt[q.fed]
	}
	return q.out[q.fed-len(q.t.req.Prompt)]
}

// pendingModel is a reload in flight: the worker installs it at the next
// step boundary where it holds no in-flight sequences. Every worker is
// handed the same pendingModel.
type pendingModel struct {
	m       *model.LM
	version uint64
}

// worker runs the continuous batching loop over the weights generation it
// holds: admit into free slots, step the whole batch one token, sample and
// retire, repeat. Sequences join and leave at any step boundary, so a long
// request never blocks a short one and fresh arrivals start mid-flight.
// Inference only reads a model, so every worker steps the same one through
// its own Stepper and states.
//
// A Reload parks the next generation in pending. The worker then stops
// admitting (in-flight sequences keep stepping on the current weights,
// retiring normally), and the moment its batch is empty it swaps model,
// stepper, and version and resumes admitting — so every sequence runs
// start-to-finish on one weights generation, and nothing is shed.
type worker struct {
	s       *Server
	id      int // worker index, the trace tid for this worker's spans
	m       *model.LM
	arch    model.Config // immutable architecture, read by Reload for validation
	version uint64       // weights generation of w.m (worker-goroutine owned)
	pending atomic.Pointer[pendingModel]
	stepper *model.Stepper
	active  []*seq
	ids     []int
	states  []*model.GenState

	// The sequences emitting this step, and their sampling fan-out: lg holds
	// one logits row per emitter, compact (row j belongs to sequence emit[j];
	// mid-prompt sequences have none), and the emitters draw their tokens
	// side by side on the backend's workers, sequence emit[j] from row j with
	// decoder decs[j] into drawn[j]. Each sequence owns its RNG and each slot
	// its decoder scratch, so what is drawn does not depend on who draws it.
	// admit uses decs[0].
	decs       []*sampling.Decoder
	lg         *tensor.Matrix
	emit       []int
	drawn      []int
	sampleSlot func(j int) // w.sample, bound once so step allocates nothing
}

func newWorker(s *Server, m *model.LM) *worker {
	w := &worker{
		s:       s,
		m:       m,
		arch:    m.Cfg,
		version: 1,
		stepper: m.NewStepper(s.cfg.MaxBatch),
		ids:     make([]int, s.cfg.MaxBatch),
		states:  make([]*model.GenState, s.cfg.MaxBatch),
		decs:    make([]*sampling.Decoder, s.cfg.MaxBatch),
		emit:    make([]int, s.cfg.MaxBatch),
		drawn:   make([]int, s.cfg.MaxBatch),
	}
	for i := range w.decs {
		w.decs[i] = sampling.NewDecoder(m.Cfg.Vocab)
	}
	w.sampleSlot = w.sample
	return w
}

// maybeSwap installs a pending reload. Callers guarantee the batch is
// empty, so no in-flight sequence ever crosses a weights boundary.
func (w *worker) maybeSwap() {
	p := w.pending.Swap(nil)
	if p == nil {
		return
	}
	w.m = p.m
	w.stepper = p.m.NewStepper(w.s.cfg.MaxBatch)
	w.version = p.version
}

func (w *worker) loop() {
	for {
		if len(w.active) == 0 {
			w.maybeSwap()
			// Idle: block for work or shutdown.
			select {
			case t := <-w.s.queue:
				// A reload may have landed while blocked; install it before
				// admitting so this request gets the new weights.
				w.maybeSwap()
				w.admit(t)
				w.fill()
			case <-w.s.stop:
				w.drain()
				return
			}
		} else {
			// Busy: top up free slots without blocking the batch. The
			// explicit yield matters on few cores — steps are microseconds,
			// so without it the batcher can starve the very submitters
			// whose requests would fill the batch, and coalescing never
			// happens.
			runtime.Gosched()
			select {
			case <-w.s.stop:
				w.drain()
				return
			default:
			}
			if w.pending.Load() == nil {
				// With a reload pending, stop admitting and let the batch
				// drain on the current weights.
				w.fill()
			}
		}
		if len(w.active) > 0 {
			w.step()
		}
	}
}

// fill admits queued tasks into free slots without waiting.
func (w *worker) fill() {
	for len(w.active) < w.s.cfg.MaxBatch {
		select {
		case t := <-w.s.queue:
			w.admit(t)
		default:
			return
		}
	}
}

// admit turns a task into an active sequence — unless its deadline already
// passed (deadline shedding) or the prefix cache lets it skip prefill (and
// possibly complete instantly for N == 1).
func (w *worker) admit(t *task) {
	req := t.req
	if !req.Deadline.IsZero() && time.Now().After(req.Deadline) {
		w.s.stats.onShed(true)
		w.s.tracer.Instant("serve", "expired", w.id, time.Now(), 0)
		t.done <- taskDone{err: ErrDeadlineExceeded}
		return
	}
	w.s.stats.onAccept()

	q := &seq{t: t, r: rng.New(req.Seed), out: make([]int, 0, req.N)}
	if w.s.tracer != nil {
		q.admitted = time.Now()
		w.s.tracer.Span("serve", "queue", w.id, t.submitted, q.admitted.Sub(t.submitted), 0, 0)
	}

	if val, ok := w.prefixLookup(req.Prompt); ok {
		// Hot prompt: restore the post-prompt state and draw the first
		// token from the cached logits, exactly as the sequential path
		// would after consuming the prompt.
		pe := val.(*prefixEntry)
		q.state = pe.state.Clone()
		q.fed = len(req.Prompt)
		t.prefix = true
		q.prefillEnd = q.admitted // prefill skipped via the prefix cache
		q.out = append(q.out, w.decs[0].Sample(pe.logits, req.Opts, q.r))
		if len(q.out) == req.N {
			w.traceRetire(q)
			t.done <- taskDone{tokens: q.out, version: w.version}
			return
		}
	} else {
		q.state = w.m.NewGenState()
	}
	w.active = append(w.active, q)
}

// traceRetire closes out a completed sequence's spans: prefill (admission
// to end of prompt consumption) and decode (the rest). No-op without a
// tracer.
func (w *worker) traceRetire(q *seq) {
	tr := w.s.tracer
	if tr == nil {
		return
	}
	now := time.Now()
	pe := q.prefillEnd
	if pe.IsZero() {
		// Retired before the prompt finished (cannot happen today, but a
		// span must not run backwards if it ever does).
		pe = now
	}
	tr.Span("serve", "prefill", w.id, q.admitted, pe.Sub(q.admitted), 0, 0)
	tr.Span("serve", "decode", w.id, pe, now.Sub(pe), 0, 0)
}

// prefixLookup consults the prefix cache, skipping even the key build when
// the cache is disabled (uncached configurations must not pay for cache
// bookkeeping). Entries snapshotted by a different weights generation are
// misses: an old-weights state must never seed a new-weights generation.
func (w *worker) prefixLookup(prompt []int) (any, bool) {
	if w.s.prefix == nil {
		return nil, false
	}
	return w.s.prefix.getIf(prefixKey(prompt), func(v any) bool {
		return v.(*prefixEntry).version == w.version
	})
}

// step advances every active sequence one token: one batched cell step, the
// logits of the sequences that emit, then sampling and retirement. Sequences
// whose deadline passed are abandoned first — a dead caller must not keep
// occupying a batch slot.
func (w *worker) step() {
	w.expire(time.Now())
	if len(w.active) == 0 {
		return
	}
	b := len(w.active)
	ne := 0
	for i, q := range w.active {
		w.ids[i] = q.nextInput()
		w.states[i] = q.state
		// A sequence emits once this step has fed it the last token of its
		// prompt. Until then only its cell advances: the logits of a
		// mid-prompt token are never sampled, and they are most of a step.
		q.fed++
		if q.fed >= len(q.t.req.Prompt) {
			w.emit[ne] = i
			ne++
		}
	}
	w.lg = w.stepper.StepEmitting(w.ids[:b], w.states[:b], w.emit[:ne])
	w.s.stats.onBatchStep(b)

	// The prefix snapshot of a prompt that just finished, in slot order.
	for j, i := range w.emit[:ne] {
		q := w.active[i]
		if q.fed != len(q.t.req.Prompt) {
			continue
		}
		if w.s.tracer != nil {
			q.prefillEnd = time.Now()
		}
		// For future requests sharing the prompt (state and logits are
		// copied, so later mutation of the live sequence cannot corrupt it).
		if w.s.prefix != nil {
			w.s.prefix.put(prefixKey(q.t.req.Prompt), &prefixEntry{
				state:   q.state.Clone(),
				logits:  append([]float32(nil), w.lg.Row(j)...),
				version: w.version,
			})
		}
	}

	// Sampling is per-sequence work batching cannot amortize — a softmax
	// over the vocabulary each — so the emitters draw on every worker of the
	// backend at once.
	w.m.Backend().For(ne, w.sampleSlot)

	// Append and retire, in slot order again.
	n, j := 0, 0
	for _, q := range w.active {
		if q.fed >= len(q.t.req.Prompt) {
			q.out = append(q.out, w.drawn[j])
			j++
			if len(q.out) == q.t.req.N {
				w.traceRetire(q)
				q.t.done <- taskDone{tokens: q.out, version: w.version}
				continue // retire
			}
		}
		w.active[n] = q
		n++
	}
	for i := n; i < b; i++ {
		w.active[i] = nil
	}
	w.active = w.active[:n]
}

// sample draws emitter j's token for this step from row j of the compact
// logits (see the worker fields).
func (w *worker) sample(j int) {
	q := w.active[w.emit[j]]
	w.drawn[j] = w.decs[j].Sample(w.lg.Row(j), q.t.req.Opts, q.r)
}

// expire sheds active sequences whose deadline has passed (partial output
// discarded, and counted: ExpiredInFlight / DiscardedTokens separate the
// sequences that wasted forward passes from the ones shed before service).
func (w *worker) expire(now time.Time) {
	n := 0
	for _, q := range w.active {
		if d := q.t.req.Deadline; !d.IsZero() && now.After(d) {
			w.s.stats.onExpire(len(q.out))
			w.s.tracer.Instant("serve", "expired", w.id, now, 0)
			w.s.flight.Record(slog.LevelWarn, "in-flight request expired",
				"worker", w.id, "discarded_tokens", len(q.out), "n", q.t.req.N)
			q.t.done <- taskDone{err: ErrDeadlineExceeded}
			continue
		}
		w.active[n] = q
		n++
	}
	for i := n; i < len(w.active); i++ {
		w.active[i] = nil
	}
	w.active = w.active[:n]
}

// drain fails everything this worker still holds; the server drains the
// shared queue after all workers exit.
func (w *worker) drain() {
	for _, q := range w.active {
		q.t.done <- taskDone{err: ErrShutdown}
	}
	w.active = w.active[:0]
}
