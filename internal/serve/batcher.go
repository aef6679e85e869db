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
	// dstate is the draft model's state for this sequence (speculative
	// servers only), kept in lockstep with state: both have always consumed
	// exactly the same tokens.
	dstate *model.GenState
	r      *rng.RNG
	fed    int   // tokens fed so far (prompt first, then own output)
	out    []int // generated tokens
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
// step boundary where it holds no in-flight sequences. On a speculative
// server it carries the draft too, so target and draft always swap as a
// pair. Every worker is handed the same pendingModel.
type pendingModel struct {
	m       *model.LM
	draft   *model.LM // nil unless speculative decoding is configured
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
	// The serial paths (admit, stepSpec) use decs[0].
	decs       []*sampling.Decoder
	lg         *tensor.Matrix
	emit       []int
	drawn      []int
	sampleSlot func(j int) // w.sample, bound once so step allocates nothing

	// Speculative decoding machinery (nil/empty without Config.Draft).
	// Layout per verify round: sequence i claims rows bases[i] ..
	// bases[i]+jBuf[i]-1 of hStack, row bases[i]+t holding the target
	// hidden state after feeds[i][0..t]; one batched LogitsFor over all
	// those rows replaces up to MaxBatch·(DraftK+1) sequential logits
	// products. tSnaps[i][t]/dSnaps[i][t] snapshot both models after
	// feeds[i][0..t] so a rejected proposal rolls back without re-running
	// anything.
	draft        *model.LM
	draftStepper *model.Stepper
	hStack       *tensor.Matrix
	dh           *tensor.Matrix // draft StepCells sink (hidden rows unused)
	dstates      []*model.GenState
	tSnaps       [][]*model.GenState
	dSnaps       [][]*model.GenState
	feeds        [][]int
	jBuf, bases  []int
	rowsBuf      []int
	oneID        []int
	oneState     []*model.GenState
}

func newWorker(s *Server, m, draft *model.LM) *worker {
	stMax := s.cfg.MaxBatch
	if draft != nil {
		// The verify pass batches every sequence's whole lookahead window
		// into one logits product.
		stMax = s.cfg.MaxBatch * (s.cfg.DraftK + 1)
	}
	w := &worker{
		s:       s,
		m:       m,
		arch:    m.Cfg,
		version: 1,
		stepper: m.NewStepper(stMax),
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
	if draft != nil {
		k := s.cfg.DraftK
		w.draft = draft
		w.draftStepper = draft.NewStepper(s.cfg.MaxBatch)
		w.hStack = tensor.NewMatrix(stMax, m.Cfg.Hidden)
		w.dh = tensor.NewMatrix(s.cfg.MaxBatch, draft.Cfg.Hidden)
		w.dstates = make([]*model.GenState, s.cfg.MaxBatch)
		w.jBuf = make([]int, s.cfg.MaxBatch)
		w.bases = make([]int, s.cfg.MaxBatch)
		w.rowsBuf = make([]int, s.cfg.MaxBatch)
		w.oneID = make([]int, 1)
		w.oneState = make([]*model.GenState, 1)
		for i := 0; i < s.cfg.MaxBatch; i++ {
			ts := make([]*model.GenState, k+1)
			ds := make([]*model.GenState, k+1)
			for t := range ts {
				ts[t] = m.NewGenState()
				ds[t] = draft.NewGenState()
			}
			w.tSnaps = append(w.tSnaps, ts)
			w.dSnaps = append(w.dSnaps, ds)
			w.feeds = append(w.feeds, make([]int, k+1))
		}
	}
	return w
}

// maybeSwap installs a pending reload. Callers guarantee the batch is
// empty, so no in-flight sequence ever crosses a weights boundary.
func (w *worker) maybeSwap() {
	p := w.pending.Swap(nil)
	if p == nil {
		return
	}
	stMax := w.s.cfg.MaxBatch
	if p.draft != nil {
		stMax = w.s.cfg.MaxBatch * (w.s.cfg.DraftK + 1)
	}
	w.m = p.m
	w.stepper = p.m.NewStepper(stMax)
	if p.draft != nil {
		// Same architecture (Reload validates), so the snapshot and
		// scratch pools carry over; only the models and steppers swap.
		w.draft = p.draft
		w.draftStepper = p.draft.NewStepper(w.s.cfg.MaxBatch)
	}
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
				w.coalesce()
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
			if w.specReady() {
				w.stepSpec()
			} else {
				w.step()
			}
		}
	}
}

// specReady reports whether a speculative round can run: every active
// sequence must be past prefill with at least one emitted token (the round
// invariant "both models have consumed prompt plus all output but the last
// token" holds exactly then). Mixed batches — some sequences still
// prefilling — run normal steps, which keep target and draft in lockstep,
// until everyone is ready.
func (w *worker) specReady() bool {
	if w.draft == nil {
		return false
	}
	for _, q := range w.active {
		if len(q.out) == 0 {
			return false
		}
	}
	return true
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

// coalesce optionally lingers up to BatchWindow after starting a fresh
// batch, trading first-token latency for batch occupancy. A reload arriving
// mid-linger ends it: the sooner the batch drains, the sooner the new
// weights install. Deadlines are honored during the linger too — the
// worker wakes at the soonest in-flight deadline and sheds it there,
// rather than letting an expired sequence wait out the window only to be
// discarded at the first step.
func (w *worker) coalesce() {
	if w.s.cfg.BatchWindow <= 0 {
		w.fill()
		return
	}
	window := time.NewTimer(w.s.cfg.BatchWindow)
	defer window.Stop()
	for len(w.active) < w.s.cfg.MaxBatch && w.pending.Load() == nil {
		var (
			expiry   <-chan time.Time
			expTimer *time.Timer
		)
		if d, ok := w.soonestDeadline(); ok {
			expTimer = time.NewTimer(time.Until(d))
			expiry = expTimer.C
		}
		select {
		case t := <-w.s.queue:
			w.admit(t)
		case <-expiry:
			w.expire(time.Now())
			if len(w.active) == 0 {
				return
			}
		case <-window.C:
			if expTimer != nil {
				expTimer.Stop()
			}
			return
		case <-w.s.stop:
			if expTimer != nil {
				expTimer.Stop()
			}
			return
		}
		if expTimer != nil {
			expTimer.Stop()
		}
	}
}

// soonestDeadline returns the earliest deadline among active sequences.
func (w *worker) soonestDeadline() (time.Time, bool) {
	var min time.Time
	for _, q := range w.active {
		if d := q.t.req.Deadline; !d.IsZero() && (min.IsZero() || d.Before(min)) {
			min = d
		}
	}
	return min, !min.IsZero()
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
		if w.draft != nil {
			// The prefix cache stores only the target state; replay the
			// prompt through the small draft so the lockstep invariant
			// holds from the first step. Still far cheaper than target
			// prefill, which the hit just skipped.
			q.dstate = w.draft.NewGenState()
			w.oneState[0] = q.dstate
			for _, tok := range req.Prompt {
				w.oneID[0] = tok
				w.draftStepper.StepCells(w.oneID, w.oneState, w.dh, 0)
			}
			w.s.stats.onDraftSteps(len(req.Prompt))
		}
	} else {
		q.state = w.m.NewGenState()
		if w.draft != nil {
			q.dstate = w.draft.NewGenState()
		}
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
	if w.draft != nil {
		// Advance the draft on the same tokens so both models have always
		// consumed identical prefixes — the invariant stepSpec starts from.
		for i := 0; i < b; i++ {
			w.dstates[i] = w.active[i].dstate
		}
		w.draftStepper.StepCells(w.ids[:b], w.dstates[:b], w.dh, 0)
		w.s.stats.onDraftSteps(b)
	}

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

// stepSpec advances every active sequence up to DraftK+1 tokens in one
// speculative round (Leviathan et al. style, adapted to RNNs) — the one
// speculative implementation; zipflm-generate -draft runs it with a batch of
// one. The draft proposes per-sequence lookaheads by greedy argmax (batched
// across sequences); the target verifies them, and emission stops at the
// first position where the target's own draw disagrees with the next
// proposal, rolling both models back to the snapshot at that point. An RNN
// cannot batch the verification across time — the recurrence serializes the
// cell — but the cell is the cheap part: the V×D logits product dominates
// decode, and it has no recurrence. So the target runs the serial cell steps
// per position (StepCells) and then ONE batched LogitsFor over every
// position of every sequence.
//
// Exactness: every emitted token is drawn by sampling.Decoder.Sample from the
// target's true-prefix logits — row bases[i]+t of the batched call is
// bit-identical to the logits a sequential Step would produce after the same
// tokens (the Stepper per-row contract) — and Sample draws exactly the
// sequential schedule's variates (one per emitted token at temperature > 0,
// none at 0) because draft proposals are RNG-free argmax. Output is therefore
// bit-identical to model.GenerateOpts at every temperature and filter
// setting; the draft changes the cost per token, never the tokens. The
// paper's Zipf skew is what makes the trade favorable: most next-token draws
// are head tokens a small model predicts as well as a large one, so
// acceptance stays high.
func (w *worker) stepSpec() {
	w.expire(time.Now())
	b := len(w.active)
	if b == 0 {
		return
	}
	k := w.s.cfg.DraftK

	// Lookahead windows and verify-row bases.
	rows, maxJ := 0, 0
	for i, q := range w.active {
		j := q.t.req.N - len(q.out)
		if j > k+1 {
			j = k + 1
		}
		w.jBuf[i] = j
		w.bases[i] = rows
		rows += j
		if j > maxJ {
			maxJ = j
		}
		w.feeds[i][0] = q.nextInput()
	}

	// Draft phase: propose by argmax, batched across the sequences still
	// looking ahead, snapshotting the draft after each consumed token.
	for t := 1; t < maxJ; t++ {
		n := 0
		for i, q := range w.active {
			if w.jBuf[i] > t {
				w.ids[n] = w.feeds[i][t-1]
				w.states[n] = q.dstate
				w.rowsBuf[n] = i
				n++
			}
		}
		if n == 0 {
			break
		}
		dlg := w.draftStepper.Step(w.ids[:n], w.states[:n])
		for bi := 0; bi < n; bi++ {
			i := w.rowsBuf[bi]
			w.dSnaps[i][t-1].CopyFrom(w.active[i].dstate)
			w.feeds[i][t] = sampling.Argmax(dlg.Row(bi))
		}
		w.s.stats.onDraftSteps(n)
	}

	// Verify phase: serial target cell steps (the recurrence allows no
	// other order), then the single batched logits product they exist to
	// amortize.
	w.hStack.Rows = rows
	w.hStack.Data = w.hStack.Data[:rows*w.hStack.Cols]
	for i, q := range w.active {
		w.oneState[0] = q.state
		for t := 0; t < w.jBuf[i]; t++ {
			w.oneID[0] = w.feeds[i][t]
			w.stepper.StepCells(w.oneID, w.oneState, w.hStack, w.bases[i]+t)
			w.tSnaps[i][t].CopyFrom(q.state)
		}
	}
	lg := w.stepper.LogitsFor(w.hStack)
	w.hStack.Rows = w.s.cfg.MaxBatch * (k + 1)
	w.hStack.Data = w.hStack.Data[:w.hStack.Rows*w.hStack.Cols]
	w.s.stats.onBatchStep(b)

	// Emission: accept until the target's own draw disagrees.
	proposed, accepted := 0, 0
	n := 0
	for i := 0; i < b; i++ {
		q := w.active[i]
		j := w.jBuf[i]
		mismatch, emitted := -1, 0
		for t := 0; t < j; t++ {
			next := w.decs[0].Sample(lg.Row(w.bases[i]+t), q.t.req.Opts, q.r)
			q.out = append(q.out, next)
			emitted++
			if t+1 < j && next != w.feeds[i][t+1] {
				mismatch = t
				break
			}
		}
		proposed += j - 1
		accepted += emitted - 1
		if len(q.out) == q.t.req.N {
			w.traceRetire(q)
			q.t.done <- taskDone{tokens: q.out, version: w.version}
			continue // retire
		}
		if mismatch >= 0 {
			q.state.CopyFrom(w.tSnaps[i][mismatch])
			q.dstate.CopyFrom(w.dSnaps[i][mismatch])
		} else {
			// Full accept: the draft never consumed the round's final fed
			// token; advance it so the lockstep invariant holds.
			w.oneID[0] = w.feeds[i][j-1]
			w.oneState[0] = q.dstate
			w.draftStepper.StepCells(w.oneID, w.oneState, w.dh, 0)
			w.s.stats.onDraftSteps(1)
		}
		q.fed = len(q.t.req.Prompt) + len(q.out) - 1
		w.active[n] = q
		n++
	}
	for i := n; i < b; i++ {
		w.active[i] = nil
	}
	w.active = w.active[:n]
	w.s.stats.onSpecRound(proposed, accepted)
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
