package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"zipflm/internal/ckpt"
	"zipflm/internal/collective"
	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/half"
	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/sampling"
	"zipflm/internal/telemetry"
	"zipflm/internal/trainer"
)

// trainSpec sizes one training workload. stepsPerSec is the step rate
// measured on the reference host; it turns --seconds into a fixed step
// count per segment, so deterministic counters repeat exactly.
type trainSpec struct {
	name, why   string
	model       model.Config
	ranks       int
	batch       int // sequences per rank per step
	seqLen      int
	lr          float64
	fp16        bool
	overlap     bool
	adam        bool
	zipfS       float64
	tokens      int // training stream length
	stepsPerSec float64
	// syncShare is the regime the workload exists for: the traced run's
	// sync share must lie in [min, max].
	syncShareMin, syncShareMax float64
}

const (
	validTokens = 2000 // the fixed slice train_loss_final is measured on
	warmSteps   = 5
	fixedSeed   = 0x5eed // what does not vary with --seed: initial weights, validation slice
)

var trainSpecs = []trainSpec{
	{
		name:  "train_word",
		why:   "Word-LM recipe (LSTM, sampled softmax, unique exchange, FP32 wire); model compute is ~95% of a step, so kernel, allocation and sampler changes show here and exchange changes must not",
		model: model.Config{Vocab: 10000, Dim: 64, Hidden: 128, RNN: model.KindLSTM, Sampled: 128},
		ranks: 4, batch: 4, seqLen: 20, lr: 0.3, zipfS: 1.2, tokens: 160000,
		stepsPerSec:  27,
		syncShareMax: 0.15,
	},
	{
		name:  "train_char_comm",
		why:   "Char-LM at the strong-scaling limit (RHN, full softmax, Adam, FP16 wire, overlapped buckets, 8 tokens per rank); sync is >45% of a step, so collective, half and optimizer changes show here",
		model: model.Config{Vocab: 98, Dim: 32, Hidden: 256, RNN: model.KindRHN, RHNDepth: 3},
		ranks: 4, batch: 1, seqLen: 8, lr: 0.01, fp16: true, overlap: true, adam: true, zipfS: 1.0, tokens: 40000,
		stepsPerSec:  22,
		syncShareMin: 0.30, syncShareMax: 1,
	},
}

// trainSeg is what one measured segment produced.
type trainSeg struct {
	sample     // wall and cpu include the checkpoint; one latency per step
	traced     bool
	steps      int
	wireBytes  int64 // max-over-ranks wire bytes of the segment's steps
	captureMs  float64
	saveMs     float64
	fileBytes  int64
	allocBytes uint64 // heap allocated by the segment's steps (traced only)
	mallocs    uint64
	rank0      collective.Stats // rank 0's traffic during the steps
}

// trainSide is one trainer and its checkpoint store; the traced run has two
// (untraced reference and traced twin) so tracing overhead is a difference of
// two runs of the same code on the same data.
type trainSide struct {
	tr   *trainer.Trainer
	dir  *ckpt.Dir
	last *ckpt.State
}

type trainWL struct {
	spec   trainSpec
	seed   uint64
	sc     scale
	traced bool
	tmp    string

	rec      *recorder
	tracer   *telemetry.Tracer
	train    []int
	valid    []int
	genSecs  float64
	setups   []float64
	plain    trainSide
	twin     trainSide // traced mode only
	segs     []trainSeg
	failed   int
	attempts int
}

func newTrainWL(spec trainSpec, seed uint64, sc scale, traced bool, tmp string) *trainWL {
	w := &trainWL{spec: spec, seed: seed, sc: sc, traced: traced, tmp: tmp}
	if traced {
		w.rec = newRecorder(spec.name)
		w.tracer = telemetry.NewTracer(0)
	}
	return w
}

func (w *trainWL) name() string { return w.spec.name }

func (w *trainWL) spans() *recorder { return w.rec }

func (w *trainWL) stepsPerSegment() int {
	return max(2, int(math.Round(w.spec.stepsPerSec*w.sc.seconds/float64(w.sc.segments))))
}

// build makes the inputs from the seed and a trainer over them: the set-up a
// user pays before the first step.
func (w *trainWL) build(tracer *telemetry.Tracer, sub string) (trainSide, error) {
	s := w.spec
	t0 := time.Now()
	// The generator emits ids in [1, VocabSize]; id 0 is <unk>.
	gen := func(seed uint64) *corpus.Generator {
		return corpus.NewGenerator(corpus.GeneratorConfig{VocabSize: s.model.Vocab - 1, ZipfExponent: s.zipfS, Seed: seed})
	}
	w.train = gen(w.seed).Stream(s.tokens)
	// The validation slice and the initial weights are the same for every
	// seed, so train_loss_final varies across seeds only through the
	// training data.
	w.valid = gen(fixedSeed).Stream(validTokens)
	w.genSecs = time.Since(t0).Seconds()

	cfg := trainer.Config{
		Model: s.model, Ranks: s.ranks, BatchPerRank: s.batch, SeqLen: s.seqLen,
		LR: s.lr, Exchange: core.UniqueExchange{}, SeedStrategy: sampling.ZipfFreq,
		BaseSeed: fixedSeed, Overlap: s.overlap, Trace: tracer,
		// Explicit, so ZIPFLM_WORKERS cannot change the backend under test.
		Workers: 1,
	}
	if s.fp16 {
		cfg.Wire = half.NewScaler(256)
	}
	if s.adam {
		cfg.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }
	}
	tr, err := trainer.New(cfg, w.train, w.valid)
	if err != nil {
		return trainSide{}, err
	}
	dir, err := ckpt.NewDir(filepath.Join(w.tmp, sub), 0, 0)
	if err != nil {
		return trainSide{}, err
	}
	return trainSide{tr: tr, dir: dir}, nil
}

func (w *trainWL) setup() error {
	err := w.sc.repeatSetup(w.traced, &w.setups, func(i int) error {
		var err error
		w.plain, err = w.build(nil, fmt.Sprintf("%s_ckpt%d", w.spec.name, i))
		return err
	})
	if err == nil && w.traced {
		w.twin, err = w.build(w.tracer, w.spec.name+"_ckpt_traced")
	}
	return err
}

func (w *trainWL) warmup() error {
	if err := w.plain.tr.Steps(warmSteps); err != nil {
		return err
	}
	if w.traced {
		return w.twin.tr.Steps(warmSteps)
	}
	return nil
}

// segment runs a fixed number of steps and one checkpoint. In the traced run
// odd segments run on the traced twin.
func (w *trainWL) segment(i int) error {
	side, rec := &w.plain, (*recorder)(nil)
	if w.traced && i%2 == 1 {
		side, rec = &w.twin, w.rec
	}
	tr := side.tr
	n := w.stepsPerSegment()
	seg := trainSeg{traced: rec != nil, steps: n}
	seg.tokens = float64(n * w.spec.ranks * w.spec.batch * w.spec.seqLen)
	runtime.GC()
	var m0, m1 runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&m0)
	}
	wire0 := tr.Comm().MaxStats().Total()
	rank0 := tr.Comm().RankStats(0)
	slow0 := hostSlowdown()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	for s := 0; s < n; s++ {
		a := time.Now()
		err := tr.Steps(1)
		b := time.Now()
		rec.add("trainer.Steps", tr.Step(), a, b)
		seg.latMs = append(seg.latMs, ms(b.Sub(a)))
		w.attempts++
		if err != nil {
			w.failed++
			return fmt.Errorf("%s: step %d: %w", w.spec.name, tr.Step(), err)
		}
	}
	seg.wireBytes = tr.Comm().MaxStats().Total() - wire0
	seg.rank0 = tr.Comm().RankStats(0).Sub(rank0)
	if rec != nil {
		runtime.ReadMemStats(&m1)
		seg.allocBytes, seg.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	}

	// The checkpoint stall is part of the segment: a user's tok/s pays it.
	w.attempts++
	a := time.Now()
	st, err := tr.CaptureState()
	b := time.Now()
	rec.add("trainer.CaptureState", tr.Step(), a, b)
	if err != nil {
		w.failed++
		return fmt.Errorf("%s: capture: %w", w.spec.name, err)
	}
	path, err := side.dir.Save(st)
	c := time.Now()
	rec.add("ckpt.Dir.Save", tr.Step(), b, c)
	if err != nil {
		w.failed++
		return fmt.Errorf("%s: save: %w", w.spec.name, err)
	}
	seg.wall = c.Sub(t0).Seconds()
	seg.cpu = cpuSeconds() - cpu0
	seg.slow = (slow0 + hostSlowdown()) / 2
	seg.captureMs, seg.saveMs = ms(b.Sub(a)), ms(c.Sub(b))
	if fi, err := os.Stat(path); err == nil {
		seg.fileBytes = fi.Size()
	}
	side.last = st
	w.segs = append(w.segs, seg)
	return nil
}

// check runs the correctness gates on one side and returns the checkpoint
// load time.
func (w *trainWL) check(rep *report, side *trainSide, label string, rec *recorder) (loadMs float64) {
	err := side.tr.ReplicasInSync()
	rep.gate(label+"replicas_in_sync", err == nil, "Trainer.ReplicasInSync: %v", errOrOK(err))

	// A loaded checkpoint must round-trip to the captured step.
	w.attempts++
	a := time.Now()
	got, err := side.dir.Latest()
	b := time.Now()
	rec.add("ckpt.Dir.Latest", side.tr.Step(), a, b)
	ok := err == nil && got.Step == side.last.Step && bytes.Equal(got.ModelBytes, side.last.ModelBytes)
	if !ok {
		w.failed++
	}
	rep.gate(label+"checkpoint_round_trip", ok, "loaded step %v, captured step %d: %v", stepOf(got), side.last.Step, errOrOK(err))
	return ms(b.Sub(a))
}

func errOrOK(err error) any {
	if err == nil {
		return "ok"
	}
	return err
}

func stepOf(st *ckpt.State) any {
	if st == nil {
		return "none"
	}
	return st.Step
}

func (w *trainWL) finish() (*report, error) {
	s := w.spec
	rep := &report{Workload: s.name, Why: s.why, Seed: w.seed, Seconds: w.sc.seconds, Traced: w.traced}
	loadMs := w.check(rep, &w.plain, "", nil)
	loss := w.plain.tr.Validate()
	rep.gate("loss_finite", !math.IsNaN(loss) && !math.IsInf(loss, 0), "validation loss %.6f nats", loss)
	got := values{}

	var plain, traced []trainSeg
	for _, sg := range w.segs {
		if sg.traced {
			traced = append(traced, sg)
		} else {
			plain = append(plain, sg)
		}
	}
	if !w.traced {
		n := len(plain)
		got.set("setup_s", median(w.setups), len(w.setups))
		opMetrics(got, samplesOf(plain))
		got.set("train_wire_bytes_per_step", sum(per(plain, func(g trainSeg) float64 { return float64(g.wireBytes) }))/float64(n*w.stepsPerSegment()), n)
		got.set("train_peak_scratch_bytes", float64(w.plain.tr.Cluster().MaxPeak()), 1)
		got.set("train_loss_final", loss, 1)
		rep.detail("steps_per_segment", "count", float64(w.stepsPerSegment()), n)
	} else {
		loadMs = w.check(rep, &w.twin, "traced.", w.rec)
		// Tracing only observes: the twin took the same steps on the same
		// data, so it must hold the same weights.
		same := bytes.Equal(w.twin.last.ModelBytes, w.plain.last.ModelBytes)
		rep.gate("traced.matches_untraced", same, "traced twin and untraced reference weights equal: %v", same)
		if err := w.tracedMetrics(rep, got, plain, traced, loadMs); err != nil {
			return nil, err
		}
	}

	var err error
	if w.traced {
		rep.Metrics, err = resolve(perLayer, famTrain, 0, got)
	} else {
		rep.Metrics, err = resolve(endToEnd, famTrain, 1, got)
	}
	rep.Attempted, rep.Failed = w.attempts, w.failed
	return rep, err
}

// tracedMetrics turns the traced segments' spans, the ladder and the process
// counters into the per-layer metrics.
func (w *trainWL) tracedMetrics(rep *report, got values, plain, traced []trainSeg, loadMs float64) error {
	s := w.spec
	steps := w.rec.named("trainer.Steps")
	var stepNs, computeNs, syncNs, arNs, agNs int64
	var stepMs []float64
	for _, sp := range steps {
		stepNs += sp.End - sp.Start
		stepMs = append(stepMs, ms(sp.dur()))
	}
	for _, e := range w.rec.events(w.tracer) {
		i := containing(steps, e.start, e.end)
		if i < 0 {
			continue // warm-up
		}
		w.rec.addChild(steps[i], e)
		d := e.end - e.start
		switch {
		case e.cat == "train" && e.name == "compute":
			computeNs += d
		case e.cat == "train" && e.name == "sync":
			syncNs += d
		case e.cat == "collective" && e.tid == 0 && e.name == "allreduce":
			arNs += d
		case e.cat == "collective" && e.tid == 0 && (e.name == "allgather_ints" || e.name == "allgather_floats"):
			agNs += d
		}
	}
	nSteps := len(steps)
	if nSteps == 0 || stepNs == 0 {
		return fmt.Errorf("%s: traced run recorded no steps", s.name)
	}
	share := func(ns int64) float64 { return float64(ns) / float64(stepNs) }
	unattributed := share(stepNs - computeNs - syncNs)
	got.set("trainer.compute_share", share(computeNs), nSteps)
	got.set("trainer.sync_share", share(syncNs), nSteps)
	got.set("trace.unattributed_frac", unattributed, nSteps)
	got.set("collective.allreduce_share", share(arNs), nSteps)
	got.set("collective.allgather_share", share(agNs), nSteps)
	got.set("op.p50_ms", percentile(stepMs, 50), nSteps)
	got.set("op.p95_ms", percentile(stepMs, 95), nSteps)
	rep.detail("trainer.step_ms_mean", "ms", float64(stepNs)/1e6/float64(nSteps), nSteps)
	rep.detail("trainer.compute_ms_per_step", "ms", float64(computeNs)/1e6/float64(nSteps), nSteps)
	rep.detail("trainer.sync_ms_per_step", "ms", float64(syncNs)/1e6/float64(nSteps), nSteps)
	rep.detail("collective.allreduce_ms_per_step", "ms", float64(arNs)/1e6/float64(nSteps), nSteps)
	rep.detail("collective.allgather_ms_per_step", "ms", float64(agNs)/1e6/float64(nSteps), nSteps)

	var calls, rankBytes int64
	var allocB, mallocs uint64
	for _, sg := range traced {
		r0 := sg.rank0
		calls += r0.AllReduceCalls + r0.AllGatherCalls + r0.BroadcastCalls
		rankBytes += r0.Total()
		allocB += sg.allocBytes
		mallocs += sg.mallocs
	}
	got.set("collective.calls_per_step", float64(calls)/float64(nSteps), nSteps)
	got.set("collective.bytes_per_step", float64(rankBytes)/float64(nSteps), nSteps)
	got.set("op.alloc_bytes", float64(allocB)/float64(nSteps), nSteps)
	got.set("op.mallocs", float64(mallocs)/float64(nSteps), nSteps)

	nT := len(traced)
	fileBytes := median(per(traced, func(g trainSeg) float64 { return float64(g.fileBytes) }))
	saveMs := median(per(traced, func(g trainSeg) float64 { return g.saveMs }))
	got.set("ckpt.stall_share", median(per(traced, func(g trainSeg) float64 { return (g.captureMs + g.saveMs) / 1e3 / g.wall })), nT)
	got.set("ckpt.save_mb_per_s", fileBytes/1e6/(saveMs/1e3), nT)
	got.set("ckpt.load_mb_per_s", fileBytes/1e6/(loadMs/1e3), 1)
	got.set("ckpt.file_bytes", fileBytes, nT)
	rep.detail("ckpt.capture_ms", "ms", median(per(traced, func(g trainSeg) float64 { return g.captureMs })), nT)
	rep.detail("ckpt.save_ms", "ms", saveMs, nT)
	rep.detail("ckpt.load_ms", "ms", loadMs, 1)

	got.set("telemetry.trace_overhead_frac", traceOverhead(samplesOf(traced), samplesOf(plain)), nT)

	rep.gate("trace_reconciles", unattributed <= 0.10, "trace.unattributed_frac %.4f (limit 0.10)", unattributed)
	ss := share(syncNs)
	rep.regime("sync_share", ss >= s.syncShareMin && ss <= s.syncShareMax,
		"trainer.sync_share %.3f, want [%.2f, %.2f]", ss, s.syncShareMin, s.syncShareMax)

	// The plain single-rank run of the same model: the baseline a scaling
	// claim starts from. Wall-clock scaling itself is not reported, because
	// the G rank goroutines share this host's cores.
	g1, err := w.singleRank()
	if err != nil {
		return err
	}
	got.set("trainer.g1_tok_per_s", g1, 1)
	got.set("corpus.gen_mtok_per_s", float64(s.tokens+validTokens)/1e6/w.genSecs, 1)

	env := ladderEnv{
		cfg: s.model, batch: s.batch, seqLen: s.seqLen, stream: w.train, ranks: s.ranks,
		adam: s.adam, rung: w.sc.ladderRung(), seed: w.seed,
	}
	if s.fp16 {
		env.wire = half.NewScaler(256)
	}
	if err := runLadder(env, got); err != nil {
		return err
	}
	procMetrics(got)
	return nil
}

// singleRank trains the same model on one rank for one segment's step count
// and returns its tok/s.
func (w *trainWL) singleRank() (float64, error) {
	s := w.spec
	cfg := trainer.Config{
		Model: s.model, Ranks: 1, BatchPerRank: s.batch, SeqLen: s.seqLen, LR: s.lr,
		Exchange: core.UniqueExchange{}, BaseSeed: fixedSeed, Workers: 1,
	}
	if s.adam {
		cfg.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }
	}
	tr, err := trainer.New(cfg, w.train[:len(w.train)/s.ranks], w.valid)
	if err != nil {
		return 0, err
	}
	if err := tr.Steps(warmSteps); err != nil {
		return 0, err
	}
	n := w.stepsPerSegment()
	t0 := time.Now()
	if err := tr.Steps(n); err != nil {
		return 0, err
	}
	return float64(n*s.batch*s.seqLen) / time.Since(t0).Seconds(), nil
}

// per maps segments to one value each.
func per(segs []trainSeg, f func(trainSeg) float64) []float64 {
	xs := make([]float64, len(segs))
	for i, sg := range segs {
		xs[i] = f(sg)
	}
	return xs
}

func samplesOf(segs []trainSeg) []sample {
	out := make([]sample, len(segs))
	for i, sg := range segs {
		out[i] = sg.sample
	}
	return out
}

func (w *trainWL) close() {}
