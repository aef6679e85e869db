// Package trainer runs synchronous data-parallel language-model training
// over the simulated cluster, wiring together every substrate exactly the
// way §II-B describes the production workflow:
//
//   - each rank holds a model replica and a private shard of the training
//     stream, and runs its forward/backward pass on the trainer's pool;
//   - dense RNN/projection gradients synchronize with a ring ALLREDUCE;
//   - input-embedding gradients go through a pluggable core.Exchanger —
//     the baseline ALLGATHER or the paper's unique exchange;
//   - output-embedding gradients do the same under sampled softmax, with
//     the per-rank sampler seeds assigned by a §III-B seeding strategy;
//     under full softmax (char LM) they ALLREDUCE like dense parameters;
//   - FP16 wire compression (§III-C) applies to all gradient payloads when
//     configured.
//
// That pool, one worker per core, does all of a step's parallel work, so
// a step starts no goroutine; each replica's matmuls run on the serial
// kernels inside its rank's pass. The synchronization phase executes once
// for all ranks, driven from the step's goroutine:
// every collective and exchange takes the G ranks' buffers in one call
// (collective's …Ranks methods, core.Exchanger.ExchangeRanks) and leaves
// the reduced gradients in rank 0's, while counting, pricing and tracing
// every rank as its own. Its bulk elementwise work — the chunks of the dense
// rings and the Adam step — is spread over the pool as chunk sets and
// stripes that leave every bit where one goroutine would.
//
// §II-B's invariant, "the model parameters on all GPUs are the same during
// the next training step", holds by construction: the replicas share rank
// 0's weights (model.LM.Replica) and one optimizer, and each step's update
// runs once, after every rank's exchange has succeeded.
package trainer

import (
	"fmt"
	"log/slog"
	"runtime"
	"time"

	"zipflm/internal/ckpt"
	"zipflm/internal/cluster"
	"zipflm/internal/collective"
	"zipflm/internal/core"
	"zipflm/internal/metrics"
	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/perfmodel"
	"zipflm/internal/sampling"
	"zipflm/internal/telemetry"
	"zipflm/internal/tensor"
	"zipflm/internal/vclock"
)

// Config assembles one distributed training run.
type Config struct {
	// Model is the per-replica architecture.
	Model model.Config
	// Ranks is G, the simulated GPU count.
	Ranks int
	// BatchPerRank is sequences per rank per step (paper: 32 word LM,
	// 128 char LM).
	BatchPerRank int
	// SeqLen is tokens per sequence (paper: 20 word LM, 150 char LM).
	SeqLen int
	// LR is the epoch-0 learning rate for this run (experiments apply the
	// optim.Schedule cluster-size scaling before constructing the
	// trainer).
	LR float64
	// LRDecay multiplies the rate each epoch (§IV-B: "decay factor
	// ranging from 0.85 to 0.95"); 0 or 1 disables decay.
	LRDecay float64
	// Exchange is the embedding-gradient engine (§III-A).
	Exchange core.Exchanger
	// Wire, when non-nil, compresses gradient payloads on the wire —
	// half.NewScaler for the paper's FP16 compression-scaling (§III-C);
	// any collective.Wire works. Must be a nil interface (not a wrapped
	// typed-nil pointer) to mean FP32.
	Wire collective.Wire
	// SeedStrategy controls sampled-softmax seed sharing (§III-B).
	SeedStrategy sampling.Strategy
	// NewOptimizer builds the dense-parameter optimizer. The ranks share one
	// set of weights, so the run steps one optimizer; New calls this once,
	// and RestoreState once more to restore into. nil means SGD.
	NewOptimizer func() optim.Optimizer
	// NewSampler builds the sampled-softmax candidate source for a given
	// seed; nil means the paper's log-uniform sampler. The exact-unigram
	// alias sampler is the main alternative
	// (sampling.NewUnigramSampler).
	NewSampler func(vocab int, seed uint64) sampling.CandidateSampler
	// BaseSeed makes the whole run reproducible.
	BaseSeed uint64
	// Deprecated: Workers is kept only because the repository benchmark's
	// harness (benchmark/train.go) pins it to 1. Replicas compute on the
	// serial kernels and the step's pool parallelises over ranks; New
	// rejects any value above 1.
	Workers int
	// ClipNorm, when > 0, clips each dense gradient tensor's L2 norm.
	ClipNorm float64
	// Overlap prices the dense-gradient reduction off the step's critical
	// path: each dense layer is all-reduced as its own call, in backward
	// order (projection, RNN, then the full softmax's output embedding),
	// priced on a clock of its own, modeling a rank that sends layer L
	// while it backpropagates layer L−1 and runs the sparse embedding
	// exchange. It is a pricing switch: both modes execute the same
	// reductions, in the same pass, with the same arithmetic, so Overlap
	// composes with Wire and Hardware, and gradients and wire bytes are
	// bit-identical to the synchronous path (tested). Without Hardware it
	// changes nothing but how the reductions are grouped into calls.
	Overlap bool
	// Hardware, when non-nil, threads the virtual clock through the run.
	// The step is bulk-synchronous — every rank computes the same, meets
	// at the same collectives and applies the same update — so one device
	// clock prices it for every rank: every collective advances it by
	// α + bytes/β on the profile's ring link, per-step compute by
	// SimFLOPsPerStep ÷ achieved FLOP/s, and the embedding updates by their
	// read-modify-write bytes ÷ MemBW. StepStats then carries the predicted
	// wall-clock decomposition next to the measured one. nil (the default)
	// leaves every hot path on the exact pre-simulation code path. With
	// Overlap the dense reductions are priced on a lane clock beside the
	// device clock: a layer's reduction starts no earlier than the virtual
	// time the backward pass finished it (the forward pass is a third of
	// the compute charge, and the backward two thirds progress by the
	// finished layers' share of the dense parameters), and the device clock
	// joins the lane clock at the end of the synchronization, so the
	// predicted step is the critical path of compute and communication, not
	// their sum.
	Hardware *perfmodel.Hardware
	// SimFLOPsPerStep is the modeled per-rank compute per step charged to
	// the virtual clock (0 = communication/update-only simulation). Only
	// meaningful with Hardware.
	SimFLOPsPerStep float64
	// SimAchievedFrac is the fraction of peak FLOP/s the model's kernels
	// reach (paper §V: 0.40 word LM, 0.64 char LM); ≤ 0 means peak. Only
	// meaningful with Hardware.
	SimAchievedFrac float64
	// CheckpointEvery captures a full-state checkpoint every this many
	// global steps (0 disables). The capture is read-only, so it never
	// perturbs the training trajectory. With CheckpointDir set the state
	// is also written to disk (atomically, CRC-framed); without it the
	// latest capture is held in memory as the fault-rollback point only.
	CheckpointEvery int
	// CheckpointDir is the on-disk store (a ckpt.Dir) checkpoints land in.
	CheckpointDir string
	// CheckpointKeepLast is the store's retention: it keeps the N most
	// recent checkpoints (0 takes ckpt.NewDir's default).
	CheckpointKeepLast int
	// Faults injects rank failures at simulated times: after any step
	// whose virtual clock crosses a scheduled failure, the trainer rolls
	// every replica back to the last checkpoint (or the initial state) and
	// replays. The schedule is in virtual seconds, so it needs Hardware; New
	// rejects Faults without it as malformed input — a failure time means
	// nothing without a clock to read it against.
	Faults *ckpt.FaultPlan
	// SimCheckpointSeconds is the modeled wall-clock cost of writing one
	// checkpoint at paper scale (state bytes ÷ storage bandwidth), charged
	// to the device clock at each capture — checkpoints are a global
	// barrier. Only meaningful with Hardware.
	SimCheckpointSeconds float64
	// SimRestartSeconds is the modeled cost of detecting a dead rank,
	// reloading the checkpoint on its replacement, and rejoining. Only
	// meaningful with Hardware.
	SimRestartSeconds float64
	// Telemetry, when non-nil, publishes the trainer's step/phase metrics
	// into the registry. Purely observational: the trajectory is bit-identical with or
	// without it (tested), and nil keeps every hot path uninstrumented.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, records the run's timeline, each span stamped
	// with wall time and the virtual clock, and each piece of work once, on
	// the goroutine that ran it. On tid 0 (cat "train") every step has a
	// compute and a sync span, whose virtual durations sum to
	// StepStats.SimComputeSeconds / SimSyncSeconds exactly, and the sync
	// phase splits into an exchange and an update span; checkpoint saves
	// and fault-rollback instants go there too. The attached communicator
	// adds one span per collective operation (cat "collective", tid 0).
	// Phase 1 runs the ranks' passes on the pool's workers, and each rank
	// writes its own compute span (cat "rank", tid = rank) from the worker
	// that ran it, on the device clock's times.
	// Export with Tracer.WriteChromeTrace.
	Trace *telemetry.Tracer
	// Flight, when non-nil, records structured anomaly events (checkpoint
	// captures, fault rollbacks) into the flight-recorder ring and dumps
	// the ring on every rollback — the black-box context of a failure.
	// Purely observational, like Telemetry and Trace.
	Flight *telemetry.Flight
}

// EvalPoint is one validation measurement.
type EvalPoint struct {
	// Epoch is the (possibly fractional) epoch position.
	Epoch float64
	// Loss is mean validation cross-entropy (nats).
	Loss float64
	// Perplexity is exp(Loss).
	Perplexity float64
}

// StepStats aggregates per-step exchange measurements across the run.
type StepStats struct {
	// Steps executed.
	Steps int
	// InputUniqueGlobal / OutputUniqueGlobal accumulate U_g sums for
	// averaging.
	InputUniqueGlobal  int64
	OutputUniqueGlobal int64
	// WireBytesPerRank is the max-over-ranks total collective traffic.
	WireBytesPerRank int64
	// PeakMemory is the max-over-ranks device peak (exchange scratch).
	PeakMemory int64
	// ComputeTime / SyncTime split the run's wall-clock between the
	// forward/backward phase and the synchronization phase — the same
	// decomposition perfmodel applies to the paper's hardware.
	ComputeTime time.Duration
	SyncTime    time.Duration
	// SimComputeSeconds / SimSyncSeconds are the virtual-clock counterpart
	// of ComputeTime / SyncTime: predicted seconds on Config.Hardware,
	// split the same way (compute phase vs collectives + embedding
	// update). Zero unless Config.Hardware is set.
	SimComputeSeconds float64
	SimSyncSeconds    float64
}

// AvgInputUnique returns the mean per-step global unique word count seen by
// the input-embedding exchange.
func (s StepStats) AvgInputUnique() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.InputUniqueGlobal) / float64(s.Steps)
}

// AvgOutputUnique is the sampled-softmax counterpart.
func (s StepStats) AvgOutputUnique() float64 {
	if s.Steps == 0 {
		return 0
	}
	return float64(s.OutputUniqueGlobal) / float64(s.Steps)
}

// Result is what a training run returns.
type Result struct {
	// Evals are the validation points, in order.
	Evals []EvalPoint
	// Stats aggregates exchange costs.
	Stats StepStats
	// FinalLoss is the last validation loss.
	FinalLoss float64
}

// Trainer owns the ranks' models (models[r] for r ≥ 1 is a Replica of
// models[0]), the optimizer and the shards.
type Trainer struct {
	cfg    Config
	clu    *cluster.Cluster
	comm   *collective.Comm
	models []*model.LM
	opt    optim.Optimizer
	// be is the step's worker pool, one worker per core at New: phase 1
	// runs the ranks' passes on it, and the communicator's rings and the
	// optimizer spread their chunk sets and stripes over it.
	be tensor.Backend
	// seeds are the ranks' sampler seeds, assigned once by
	// Config.SeedStrategy; rankPass derives each step's from them.
	seeds []uint64
	// pass is the virtual span of the step's compute phase, which trainStep
	// sets for rankPass's trace spans; rankPassFn is t.rankPass, bound once
	// in New so that a step allocates no closure.
	pass       struct{ simStart, simCompute float64 }
	rankPassFn func(rank int)
	// ctxs are the ranks' exchange contexts, each with its own workspace.
	ctxs   []*core.Ctx
	shards [][]int
	valid  []int
	// batches are the ranks' (T×B) input and target buffers, which batchAt
	// refills every step.
	batches []batch
	// step is the global training-step counter; Run and Steps both
	// advance it, so interleaved calls keep consuming fresh batches (and
	// fresh per-step sampler seeds) instead of retraining from zero. lr
	// and nextDecay carry the per-epoch decay schedule across calls the
	// same way, so a resumed Run continues the decayed trajectory rather
	// than restarting from cfg.LR.
	step      int
	lr        float64
	nextDecay int
	// units are the ranks' dense gradients as all-reduce calls.
	units denseUnits
	// results and grads are trainStep's per-rank scratch, made once: each
	// rank's forward/backward result, and the sparse gradients one exchange
	// reads.
	results []model.StepResult
	grads   []core.SparseGrad
	// clock is the run's device clock, every rank's (it moves only with
	// Hardware), and deviceCost prices collectives on it (nil without
	// Hardware). laneCost prices the overlapped dense reductions on lane, a
	// clock of their own, and ready[i] is the time on the device clock at
	// which the backward pass finished units.layers[i] this step (both nil
	// unless Overlap and Hardware are set).
	clock, lane          vclock.Clock
	deviceCost, laneCost *collective.CostModel
	ready                []float64
	// ckptDir is the on-disk store (nil without Config.CheckpointDir);
	// lastCkpt is the newest captured state — the fault-rollback target.
	ckptDir  *ckpt.Dir
	lastCkpt *ckpt.State
	ftStats  FaultStats
	// tel holds the resolved telemetry instruments (nil when
	// Config.Telemetry is nil).
	tel *trainerTelemetry
}

// FaultStats aggregates the fault-tolerance side of a run: how many
// checkpoints were captured, how many failures were injected, and how much
// work and simulated time they cost.
type FaultStats struct {
	// Checkpoints captured (written to disk when a store is configured).
	Checkpoints int
	// Faults consumed from the plan.
	Faults int
	// LostSteps is the total steps rolled back and replayed.
	LostSteps int
	// SimCheckpointSeconds / SimRestartSeconds are the virtual seconds
	// charged for checkpoint writes and failure recoveries.
	SimCheckpointSeconds float64
	SimRestartSeconds    float64
}

// New builds a trainer over the given train/validation token streams. The
// training stream is sharded contiguously across ranks.
func New(cfg Config, train, valid []int) (*Trainer, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("trainer: need at least one rank")
	}
	if cfg.BatchPerRank <= 0 || cfg.SeqLen <= 0 {
		return nil, fmt.Errorf("trainer: BatchPerRank and SeqLen must be positive")
	}
	if cfg.Exchange == nil {
		cfg.Exchange = core.UniqueExchange{}
	}
	if cfg.NewOptimizer == nil {
		cfg.NewOptimizer = func() optim.Optimizer { return optim.SGD{} }
	}
	perRank := len(train) / cfg.Ranks
	need := cfg.BatchPerRank*cfg.SeqLen + 1
	if cfg.Model.Stateful {
		// Each of the B contiguous lanes needs more than one window.
		need = cfg.BatchPerRank * (cfg.SeqLen + 2)
	}
	if perRank < need {
		return nil, fmt.Errorf("trainer: shard of %d tokens below one batch (%d)", perRank, need)
	}
	if cfg.Workers > 1 {
		return nil, fmt.Errorf("trainer: Workers is deprecated and must be 0 or 1, got %d", cfg.Workers)
	}
	if cfg.Faults != nil && cfg.Hardware == nil {
		// Input validation, not a missing feature: the failure schedule is
		// written in virtual seconds and only Hardware gives the run a clock.
		return nil, fmt.Errorf("trainer: Faults need Hardware — failure times are defined on the virtual clock")
	}
	t := &Trainer{
		cfg:   cfg,
		clu:   cluster.New(cfg.Ranks, 0),
		comm:  collective.New(cfg.Ranks),
		be:    tensor.New(runtime.GOMAXPROCS(0)),
		valid: valid,
	}
	t.comm.AttachBackend(t.be)
	t.seeds = sampling.Assign(cfg.SeedStrategy, cfg.Ranks, cfg.BaseSeed+1)
	t.rankPassFn = t.rankPass
	t.tel = newTrainerTelemetry(cfg.Telemetry)
	if cfg.Trace != nil {
		t.comm.AttachTrace(cfg.Trace)
	}
	if cfg.Hardware != nil {
		// Thread the virtual clock: the flat communicator's ring runs on
		// PCIe while the cluster fits in one node, on the InfiniBand
		// boundary once it spans nodes (Table II).
		link := cfg.Hardware.RingLink(cfg.Ranks)
		t.deviceCost = &collective.CostModel{Link: link, Clock: &t.clock}
		t.comm.AttachCost(t.deviceCost)
		if cfg.Overlap {
			// The overlapped reductions share the fabric but keep their own
			// timeline.
			t.laneCost = &collective.CostModel{Link: link, Clock: &t.lane}
		}
	}
	t.ctxs = make([]*core.Ctx, cfg.Ranks)
	for r, dev := range t.clu.Devices {
		t.ctxs[r] = &core.Ctx{Rank: r, Comm: t.comm, Dev: dev, Wire: cfg.Wire, WS: core.NewWorkspace()}
	}
	mc := cfg.Model
	mc.Seed = cfg.BaseSeed
	t.models, t.units = replicate(model.NewLM(mc), cfg.Ranks)
	if t.laneCost != nil {
		t.ready = make([]float64, len(t.units.layers))
	}
	t.opt = t.newOptimizer()
	t.results = make([]model.StepResult, cfg.Ranks)
	t.grads = make([]core.SparseGrad, cfg.Ranks)
	t.shards = make([][]int, cfg.Ranks)
	t.batches = make([]batch, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		t.shards[r] = train[r*perRank : (r+1)*perRank]
		t.batches[r] = newBatch(cfg.SeqLen, cfg.BatchPerRank)
	}
	t.lr = cfg.LR
	t.nextDecay = t.StepsPerEpoch()
	if cfg.CheckpointDir != "" {
		dir, err := ckpt.NewDir(cfg.CheckpointDir, cfg.CheckpointKeepLast, 0)
		if err != nil {
			return nil, fmt.Errorf("trainer: %w", err)
		}
		t.ckptDir = dir
	}
	if cfg.Faults != nil {
		// A fault before the first periodic checkpoint rolls back to the
		// initial state, so capture it up front.
		st, err := t.CaptureState()
		if err != nil {
			return nil, err
		}
		t.lastCkpt = st
	}
	return t, nil
}

// Resume builds a trainer over cfg and restores the newest checkpoint from
// the given directory (written by a previous run with
// Config.CheckpointDir). The token streams and configuration must match
// the checkpointing run's for the resumed trajectory to be bit-identical
// to an uninterrupted one.
func Resume(cfg Config, dir string, train, valid []int) (*Trainer, error) {
	st, err := ckpt.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("trainer: %w", err)
	}
	t, err := New(cfg, train, valid)
	if err != nil {
		return nil, err
	}
	if err := t.RestoreState(st); err != nil {
		return nil, err
	}
	return t, nil
}

// CaptureState snapshots the full training state at the current step
// boundary: the weights and the optimizer state once (every rank shares
// them), RNG streams and carried recurrent state per rank, and the
// step/LR-schedule position. The capture is read-only.
func (t *Trainer) CaptureState() (*ckpt.State, error) {
	mb, err := t.models[0].Marshal()
	if err != nil {
		return nil, fmt.Errorf("trainer: checkpoint: %w", err)
	}
	st := &ckpt.State{
		Step:       t.step,
		LR:         t.lr,
		NextDecay:  t.nextDecay,
		Ranks:      t.cfg.Ranks,
		ModelBytes: mb,
		Opt:        t.opt.Snapshot(),
	}
	for r := 0; r < t.cfg.Ranks; r++ {
		st.RNG = append(st.RNG, t.models[r].RNGState())
	}
	if t.cfg.Model.Stateful {
		for r := 0; r < t.cfg.Ranks; r++ {
			st.RNN = append(st.RNN, t.models[r].CarriedRNNState())
		}
	}
	return st, nil
}

// RestoreState reinstates a state captured by CaptureState (possibly in a
// previous process). It builds new models and optimizer from the state and
// installs them only once every section has been accepted, so a refused
// state leaves the trainer as it was. After a nil
// return the next step is exactly the one an uninterrupted run would take.
func (t *Trainer) RestoreState(st *ckpt.State) error {
	g := t.cfg.Ranks
	if st.Ranks != g {
		return fmt.Errorf("trainer: checkpoint spans %d ranks, cluster has %d", st.Ranks, g)
	}
	lm, err := st.LM()
	if err != nil {
		return fmt.Errorf("trainer: restore: %w", err)
	}
	if lm.Cfg != t.models[0].Cfg {
		return fmt.Errorf("trainer: checkpoint model %+v does not match configured %+v", lm.Cfg, t.models[0].Cfg)
	}
	opt := t.newOptimizer()
	// Restore refuses another optimizer's kind, no state ("") included.
	if err := opt.Restore(st.Opt); err != nil {
		return fmt.Errorf("trainer: restore: %w", err)
	}
	// The moment slabs must be exactly as long as the model's dense slab,
	// or absent, as in the state New captures before the first step:
	// Step refuses any other length.
	if o := st.Opt; len(o.M) != 0 || len(o.V) != 0 || o.T != 0 {
		if n := len(lm.DenseGrads()); len(o.M) != n || len(o.V) != n {
			return fmt.Errorf("trainer: checkpoint holds %d/%d optimizer moments, the model has %d dense values", len(o.M), len(o.V), n)
		}
	}
	carried := 0
	if t.cfg.Model.Stateful {
		carried = g
	}
	if len(st.RNG) != g || len(st.RNN) != carried {
		return fmt.Errorf("trainer: checkpoint carries %d RNG streams and %d carried states for %d ranks, want %d and %d",
			len(st.RNG), len(st.RNN), g, g, carried)
	}
	models, units := replicate(lm, g)
	for r, m := range models {
		m.SetRNGState(st.RNG[r])
	}
	for r, cs := range st.RNN { // one per rank when stateful, none otherwise
		err := models[r].SetCarriedRNNState(cs)
		if err == nil && cs.Rows != 0 && cs.Rows != t.cfg.BatchPerRank {
			err = fmt.Errorf("carried state of %d lanes, BatchPerRank is %d", cs.Rows, t.cfg.BatchPerRank)
		}
		if err != nil {
			return fmt.Errorf("trainer: restore rank %d: %w", r, err)
		}
	}
	t.models, t.units, t.opt = models, units, opt
	t.step = st.Step
	t.lr = st.LR
	t.nextDecay = st.NextDecay
	t.lastCkpt = st
	return nil
}

// replicate makes m rank 0 and ranks 1…g−1 replicas of it, and builds the
// dense-gradient units over the ranks' own gradients.
func replicate(m *model.LM, g int) ([]*model.LM, denseUnits) {
	models := make([]*model.LM, g)
	for r := range models {
		models[r] = m
		if r > 0 {
			models[r] = m.Replica()
		}
	}
	// unit gathers what params returns for each rank's model.
	unit := func(params func(*model.LM) []model.Param) denseUnit {
		u := make(denseUnit, g)
		for r, mr := range models {
			for _, p := range params(mr) {
				u[r] = append(u[r], p.Grad)
			}
		}
		return u
	}
	var units denseUnits
	for i := range m.DenseParams() {
		units.tensors = append(units.tensors, unit(func(mr *model.LM) []model.Param { return mr.DenseParams()[i : i+1] }))
	}
	for i := len(m.DenseLayers()) - 1; i >= 0; i-- {
		units.layers = append(units.layers, unit(func(mr *model.LM) []model.Param { return mr.DenseLayers()[i].Params() }))
	}
	units.outemb = unit(func(*model.LM) []model.Param { return []model.Param{{}} })
	return models, units
}

// newOptimizer builds the run's optimizer and lends an Adam phase 2's pool.
func (t *Trainer) newOptimizer() optim.Optimizer {
	opt := t.cfg.NewOptimizer()
	if a, ok := opt.(*optim.Adam); ok {
		a.SetBackend(t.be)
	}
	return opt
}

// afterStep runs the fault-tolerance bookkeeping after each committed
// step: periodic checkpoint capture (plus the modeled write barrier on the
// virtual clock), then failure injection — any fault whose simulated time
// has passed rolls the run back to the last checkpoint. It reports whether
// a rollback happened so callers can discard bookkeeping for the replayed
// span.
func (t *Trainer) afterStep() (rolledBack bool, err error) {
	if t.cfg.CheckpointEvery > 0 && t.step%t.cfg.CheckpointEvery == 0 {
		ckptStart := time.Now()
		vtsBefore := t.clock.Now()
		st, err := t.CaptureState()
		if err != nil {
			return false, err
		}
		if t.ckptDir != nil {
			if _, err := t.ckptDir.Save(st); err != nil {
				return false, fmt.Errorf("trainer: %w", err)
			}
		}
		t.lastCkpt = st
		t.ftStats.Checkpoints++
		if t.cfg.Hardware != nil && t.cfg.SimCheckpointSeconds > 0 {
			t.clock.Advance(t.cfg.SimCheckpointSeconds)
			t.ftStats.SimCheckpointSeconds += t.cfg.SimCheckpointSeconds
		}
		t.cfg.Trace.Span("train", "checkpoint", 0, ckptStart, time.Since(ckptStart),
			vtsBefore, t.clock.Now()-vtsBefore)
		t.cfg.Flight.Record(slog.LevelInfo, "checkpoint",
			"step", t.step, "vclock_s", t.clock.Now(), "on_disk", t.ckptDir != nil)
	}
	if t.cfg.Faults != nil {
		for {
			now := t.clock.Now()
			_, ok := t.cfg.Faults.Next(now)
			if !ok {
				break
			}
			// The scheduled rank died at its simulated time: every step since
			// the last checkpoint is lost. Restore the checkpoint into the
			// replacement's (and every survivor's) replica and charge the
			// recovery. Virtual time never rewinds — the lost span stays on
			// the clock as wasted time, which is exactly what goodput
			// measures.
			lost := t.step - t.lastCkpt.Step
			t.ftStats.Faults++
			t.ftStats.LostSteps += lost
			t.cfg.Trace.Instant("train", "fault-rollback", 0, time.Now(), now)
			t.cfg.Flight.Record(slog.LevelWarn, "fault-rollback",
				"step", t.step, "restore_step", t.lastCkpt.Step, "lost_steps", lost,
				"vclock_s", now, "faults_total", t.ftStats.Faults)
			if err := t.RestoreState(t.lastCkpt); err != nil {
				return true, err
			}
			t.cfg.Flight.Trigger("fault-rollback")
			rolledBack = true
			if t.cfg.SimRestartSeconds > 0 {
				t.clock.Advance(t.cfg.SimRestartSeconds)
				t.ftStats.SimRestartSeconds += t.cfg.SimRestartSeconds
			}
			if t.tel != nil {
				t.tel.faults.Inc()
				t.tel.lostSteps.Add(int64(lost))
				t.tel.goodput.Set(t.goodputRatio())
			}
		}
	}
	return rolledBack, nil
}

// FaultStats returns the run's fault-tolerance counters so far.
func (t *Trainer) FaultStats() FaultStats { return t.ftStats }

// Step returns the global step counter (the number of committed steps).
func (t *Trainer) Step() int { return t.step }

// lrForStep returns the learning rate for the current global step,
// applying the per-epoch decay (§IV-B) the first time each epoch boundary
// is crossed — shared by Run and Steps so the schedule survives
// interleaved calls.
func (t *Trainer) lrForStep() float64 {
	if t.cfg.LRDecay > 0 && t.cfg.LRDecay != 1 {
		for t.step >= t.nextDecay {
			t.lr *= t.cfg.LRDecay
			t.nextDecay += t.StepsPerEpoch()
		}
	}
	return t.lr
}

// resetStateAtEpoch zeroes carried RNN state when the global step sits on
// an epoch boundary: stateful feeding's lanes jump back to their starts
// there, so the carried state no longer matches the text. Run and Steps
// share it so both entry points train identically.
func (t *Trainer) resetStateAtEpoch() {
	if t.cfg.Model.Stateful && t.step%t.StepsPerEpoch() == 0 {
		for _, m := range t.models {
			m.ResetRNNState()
		}
	}
}

// batch is one rank's (T×B) inputs and targets, each row a window of one
// backing array.
type batch struct{ inputs, targets [][]int }

func newBatch(seqLen, batchPerRank int) batch {
	rows := func() [][]int {
		flat := make([]int, seqLen*batchPerRank)
		out := make([][]int, seqLen)
		for st := range out {
			out[st] = flat[st*batchPerRank : (st+1)*batchPerRank : (st+1)*batchPerRank]
		}
		return out
	}
	return batch{rows(), rows()}
}

// batchAt fills rank's batch buffers with its shard's (T×B) batch at the
// given step index and returns them; they are valid until the rank's next
// batchAt (ForwardBackward copies the ids it keeps). In stateless mode
// sequence b of step s starts at an arbitrary wrapped offset; in stateful
// mode the shard is divided into B contiguous lanes and consecutive steps
// read consecutive windows of each lane, so the carried RNN state always
// continues the text it left off (standard truncated-BPTT feeding).
func (t *Trainer) batchAt(rank, step int) (inputs, targets [][]int) {
	b := t.cfg.BatchPerRank
	s := t.cfg.SeqLen
	shard := t.shards[rank]
	usable := len(shard) - 1
	inputs, targets = t.batches[rank].inputs, t.batches[rank].targets
	if t.cfg.Model.Stateful {
		laneLen := usable / b
		for seq := 0; seq < b; seq++ {
			base := seq * laneLen
			off := base + (step*s)%(laneLen-s)
			for st := 0; st < s; st++ {
				inputs[st][seq] = shard[off+st]
				targets[st][seq] = shard[off+st+1]
			}
		}
		return inputs, targets
	}
	span := b * s
	for seq := 0; seq < b; seq++ {
		off := (step*span + seq*s) % (usable - s)
		for st := 0; st < s; st++ {
			inputs[st][seq] = shard[off+st]
			targets[st][seq] = shard[off+st+1]
		}
	}
	return inputs, targets
}

// StepsPerEpoch returns how many steps one pass over the training shards
// takes.
func (t *Trainer) StepsPerEpoch() int {
	span := t.cfg.BatchPerRank * t.cfg.SeqLen
	n := (len(t.shards[0]) - 1) / span
	if n < 1 {
		n = 1
	}
	return n
}

// Model returns rank r's model: rank 0's weights, rank r's training state.
// RestoreState (and so a fault rollback) installs new models.
func (t *Trainer) Model(r int) *model.LM { return t.models[r] }

// Comm exposes the communicator for traffic inspection.
func (t *Trainer) Comm() *collective.Comm { return t.comm }

// Cluster exposes the device accountants.
func (t *Trainer) Cluster() *cluster.Cluster { return t.clu }

// SimSeconds returns the run's predicted wall-clock so far: the device
// clock's time. Zero unless Config.Hardware is set.
func (t *Trainer) SimSeconds() float64 { return t.clock.Now() }

// Run trains for the given number of epochs, validating evalsPerEpoch times
// per epoch (at least once, at each epoch end). It returns the evaluation
// trace and aggregated exchange statistics.
func (t *Trainer) Run(epochs int, evalsPerEpoch int) (Result, error) {
	if evalsPerEpoch < 1 {
		evalsPerEpoch = 1
	}
	stepsPerEpoch := t.StepsPerEpoch()
	evalEvery := stepsPerEpoch / evalsPerEpoch
	if evalEvery < 1 {
		evalEvery = 1
	}
	res := Result{}
	// Snapshot the traffic counters so the Result reports this Run's own
	// wire bytes, not lifetime totals (earlier Steps calls — warm-ups in
	// benches — would otherwise inflate the figure).
	wireBefore := t.comm.MaxStats().Total()
	target := t.step + epochs*stepsPerEpoch
	lastEval := t.step - evalEvery
	for t.step < target {
		step := t.step
		rolled, err := t.commitStep(&res.Stats)
		if err != nil {
			return res, err
		}
		if rolled {
			// An injected failure rolled the run back: drop evaluations
			// recorded past the restored step (the loop will replay and
			// re-record them) and keep going toward the same commit target.
			for len(res.Evals) > 0 &&
				res.Evals[len(res.Evals)-1].Epoch > (float64(t.step)+0.5)/float64(stepsPerEpoch) {
				res.Evals = res.Evals[:len(res.Evals)-1]
			}
			if n := len(res.Evals); n > 0 {
				res.FinalLoss = res.Evals[n-1].Loss
			} else {
				res.FinalLoss = 0
			}
			if lastEval >= t.step {
				lastEval = t.step - evalEvery
			}
			continue
		}

		// Validate on the periodic schedule, plus once at the very end
		// unless a periodic eval just happened.
		if (step+1)%evalEvery == 0 || (t.step == target && step-lastEval >= evalEvery/2) {
			lastEval = step
			loss := t.Validate()
			ep := EvalPoint{
				Epoch:      float64(step+1) / float64(stepsPerEpoch),
				Loss:       loss,
				Perplexity: metrics.Perplexity(loss),
			}
			res.Evals = append(res.Evals, ep)
			res.FinalLoss = loss
		}
	}
	res.Stats.WireBytesPerRank = t.comm.MaxStats().Total() - wireBefore
	res.Stats.PeakMemory = t.clu.MaxPeak()
	return res, nil
}

// Steps runs training until n more steps are committed, without
// validating — the raw hot loop the step benchmarks and the overlap/faults
// experiments time. It advances the trainer's global step counter and the
// LR-decay schedule, so consecutive calls (and a later Run) consume fresh
// batches at the schedule's current learning rate rather than retraining
// from step zero. Under failure injection, rolled-back steps are replayed
// until the commit target is reached (FaultStats reports the lost work).
func (t *Trainer) Steps(n int) error {
	var stats StepStats
	for target := t.step + n; t.step < target; {
		if _, err := t.commitStep(&stats); err != nil {
			return err
		}
	}
	return nil
}

// commitStep is the one path by which Run and Steps train: it resets
// carried state on an epoch boundary, takes one step at the schedule's
// learning rate, commits it, adds its measurements to stats, and runs the
// checkpoint and fault bookkeeping. It reports whether a fault rolled the
// run back; stats keeps the rolled-back steps, which were executed.
func (t *Trainer) commitStep(stats *StepStats) (rolledBack bool, err error) {
	t.resetStateAtEpoch()
	st, err := t.trainStep(t.lrForStep())
	if err != nil {
		return false, err
	}
	t.step++
	stats.Steps++
	stats.InputUniqueGlobal += int64(st.inUnique)
	stats.OutputUniqueGlobal += int64(st.outUnique)
	stats.ComputeTime += st.computeTime
	stats.SyncTime += st.syncTime
	stats.SimComputeSeconds += st.simCompute
	stats.SimSyncSeconds += st.simSync
	return t.afterStep()
}

type stepStats struct {
	inUnique, outUnique   int
	computeTime, syncTime time.Duration
	simCompute, simSync   float64
	// simStart / simAfterCompute are the virtual-clock positions at the
	// start of each phase, carried so trace spans can place their virtual
	// timestamps (zero without Hardware).
	simStart, simAfterCompute float64
}

// denseUnit is one all-reduce call's worth of dense gradients: every rank's
// gradients of the unit's tensors as a part list — u[r][i] is rank r's
// gradient of tensor i. Units are built once, in replicate, so reducing one
// allocates nothing.
type denseUnit [][][]float32

// denseUnits are the units the two modes reduce: one per dense tensor, in
// DenseParams order (synchronous mode); one per dense layer, in the order
// backpropagation finishes them, the reverse of DenseLayers (overlap mode);
// and the full softmax's output gradient, which lives in each replica's
// workspace and is pointed at every step.
type denseUnits struct {
	tensors []denseUnit
	layers  []denseUnit
	outemb  denseUnit
}

// reduceDense all-reduces every dense gradient — the full softmax's output
// gradient too when outDense — into rank 0's, which the update reads, each
// unit in one pass on the run's wire. Synchronous mode reduces a
// tensor per call, in DenseParams order. Overlap mode reduces a layer per
// call, in backward order, then the output gradient; with Hardware those
// calls are priced on the lane clock (t.laneCost), first advanced to the
// time the backward pass finished that layer (t.ready), so the charges
// price reductions that start while the ranks are still computing, and the
// device clock's model is re-attached afterwards. The output gradient is
// final when the pass ends, as the last layer is, so it follows that
// layer's reduction directly.
func (t *Trainer) reduceDense(outDense bool) {
	c, units := t.comm, t.units.tensors
	if t.cfg.Overlap {
		units = t.units.layers
	}
	if t.laneCost != nil {
		c.AttachCost(t.laneCost)
		defer c.AttachCost(t.deviceCost)
	}
	for i, u := range units {
		if t.ready != nil {
			t.lane.AdvanceTo(t.ready[i])
		}
		c.AllReduceRanks(u, t.cfg.Wire)
	}
	if outDense {
		c.AllReduceRanks(t.units.outemb, t.cfg.Wire)
	}
}

// chargeCompute charges the step's forward/backward pass to the device
// clock, once for every rank: the modeled FLOPs at the workload's achieved
// fraction of peak. Overlap pricing has to know when each dense layer's
// gradients were final, so there the clock walks to the same end point in
// stages and t.ready records each layer's time: the forward pass is a third
// of the FLOPs, and the backward two thirds progress by the finished
// layers' share of the dense parameters.
func (t *Trainer) chargeCompute() {
	sim := t.cfg.Hardware
	if sim == nil {
		return
	}
	start := t.clock.Now()
	var lump float64
	if flops := int64(t.cfg.SimFLOPsPerStep); flops > 0 {
		lump = sim.ComputeSeconds(float64(flops), t.cfg.SimAchievedFrac)
	}
	if t.ready == nil {
		t.clock.Advance(lump)
		return
	}
	total := model.NumParams(t.models[0].DenseLayers()...)
	done := 0
	for i, u := range t.units.layers {
		if lump > 0 {
			for _, p := range u[0] {
				done += len(p)
			}
			t.clock.AdvanceTo(start + lump*(1+2*float64(done)/float64(total))/3)
		}
		t.ready[i] = t.clock.Now()
	}
	t.clock.AdvanceTo(start + lump)
}

// exchange runs the sparse embedding exchanges for every rank — the input
// embedding's and, under sampled softmax, the output embedding's — and
// returns their Updates, recording U_g in agg.
func (t *Trainer) exchange(results []model.StepResult, outDense bool, agg *stepStats) (in, out core.Update, err error) {
	grads := t.grads
	for r, res := range results {
		grads[r] = res.InputGrad
	}
	in, stats, errs := t.cfg.Exchange.ExchangeRanks(t.ctxs, grads)
	if err := firstError(errs); err != nil {
		return in, out, err
	}
	agg.inUnique = stats[0].UniqueGlobal
	if outDense {
		return in, out, nil
	}
	for r, res := range results {
		grads[r] = res.OutputGrad
	}
	out, stats, errs = t.cfg.Exchange.ExchangeRanks(t.ctxs, grads)
	agg.outUnique = stats[0].UniqueGlobal
	return in, out, firstError(errs)
}

// firstError returns the first non-nil error, in rank order.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rankPass is phase 1 for one rank: the rank's forward/backward pass on its
// batch of step t.step, into t.results[rank], and its compute span.
// trainStep runs it for every rank through t.rankPassFn.
func (t *Trainer) rankPass(rank int) {
	var cT0 time.Time
	if t.cfg.Trace != nil {
		cT0 = time.Now()
	}
	step := t.step
	m := t.models[rank]
	m.ZeroGrads()
	var sampler sampling.CandidateSampler
	if t.cfg.Model.Sampled > 0 {
		// Re-seed per step so ranks sharing a §III-B seed draw the same
		// candidates every step while the stream still varies across steps.
		stepSeed := t.seeds[rank] + uint64(step)*0x9e3779b9
		if t.cfg.NewSampler != nil {
			sampler = t.cfg.NewSampler(t.cfg.Model.Vocab, stepSeed)
		} else {
			sampler = sampling.NewSampler(t.cfg.Model.Vocab, stepSeed)
		}
	}
	inputs, targets := t.batchAt(rank, step)
	t.results[rank] = m.ForwardBackward(inputs, targets, sampler)
	if tr := t.cfg.Trace; tr != nil {
		tr.Span("rank", "compute", rank, cT0, time.Since(cT0), t.pass.simStart, t.pass.simCompute)
	}
}

// trainStep executes synchronous step t.step across all ranks.
//
// Phase 1 runs every rank's forward/backward pass (rankPass) as one For
// over the ranks on the pool New started (t.be), which raises a panic in a
// rank's pass again on the caller; the calling goroutine has charged the
// pass to the device clock, once for every rank, before. Phase 2 runs from
// the calling goroutine, once for every rank: the dense reductions
// (reduceDense), the sparse exchanges, the charge for the embedding update
// every device makes, and then the update itself, once, on rank 0's reduced
// gradients. The element-pure rings' chunk sets and the Adam step's stripes
// run on the same pool, so a step starts no goroutine. cfg.Overlap decides
// only how the dense reductions are grouped and priced, so weights and
// wire-byte counters match exactly between the modes.
func (t *Trainer) trainStep(lrNow float64) (stepStats, error) {
	g := t.cfg.Ranks
	results := t.results
	var agg stepStats

	// The pass's price depends on the configuration alone, so it is charged
	// before the pass runs. The clock stays at zero without Hardware.
	sim := t.cfg.Hardware
	agg.simStart = t.clock.Now()
	t.chargeCompute()
	agg.simAfterCompute = t.clock.Now()
	agg.simCompute = agg.simAfterCompute - agg.simStart

	// Phase 1 (parallel): forward/backward on every rank.
	phaseStart := time.Now()
	t.pass.simStart, t.pass.simCompute = agg.simStart, agg.simCompute
	t.be.For(g, t.rankPassFn)
	agg.computeTime = time.Since(phaseStart)
	computeStart := phaseStart
	phaseStart = time.Now()

	// Phase 2 (one pass for every rank): synchronize. The step's exchange
	// span starts here, before the dense reductions, at agg.simAfterCompute
	// on the device clock.

	// The full-softmax output gradient is a dense V×D block that
	// all-reduces like an RNN parameter.
	outDense := t.cfg.Model.Sampled == 0
	if outDense {
		for r, res := range results {
			t.units.outemb[r][0] = res.OutputGrad.Rows.Data
		}
	}
	t.reduceDense(outDense)
	inUpd, outUpd, err := t.exchange(results, outDense, &agg)
	// The device clock joins the lane clock (which stays at zero unless
	// the overlapped reductions are priced on it).
	t.clock.AdvanceTo(t.lane.Now())
	if err != nil {
		return agg, err
	}

	m := t.models[0]
	// Embedding updates are a read-modify-write over the touched rows: 2×
	// row bytes of device-memory traffic (§III-A's conflict-free update runs
	// at full memory bandwidth). Every simulated device makes the same
	// one, charged once; the host runs one, below.
	outRows := len(outUpd.Indices)
	if outDense {
		outRows = len(results[0].OutputGrad.Indices)
	}
	updateBytes := 2*int64(len(inUpd.Indices))*int64(m.InEmb.Cols)*4 + 2*int64(outRows)*int64(m.OutEmb.Cols)*4
	upV0 := t.clock.Now()
	var upT0 time.Time
	if t.cfg.Trace != nil {
		upT0 = time.Now()
	}
	if sim != nil {
		t.clock.Advance(sim.MemorySeconds(updateBytes))
	}
	if tr := t.cfg.Trace; tr != nil {
		// The exchange span closes once every collective has completed: its
		// virtual duration is the step's wire time, and its wall time is
		// the pass so far, which did every rank's share.
		tr.Span("train", "exchange", 0, phaseStart, upT0.Sub(phaseStart), agg.simAfterCompute, upV0-agg.simAfterCompute)
		tr.Span("train", "update", 0, upT0, time.Since(upT0), upV0, t.clock.Now()-upV0)
	}

	// The update, once for every rank (the reduced gradients are in rank
	// 0's tensors) and only after every rank's exchange has succeeded, so a
	// step any rank failed moves no weight and no moment. The 1/G scale
	// stays on the caller: one multiply per element is cheaper serially than
	// a wake of the pool's helpers.
	lr := float32(lrNow)
	invG := float32(1.0 / float64(g))
	tensor.Scale(m.DenseGrads(), invG)
	if t.cfg.ClipNorm > 0 {
		for _, p := range m.DenseParams() {
			tensor.ClipL2(p.Grad, t.cfg.ClipNorm)
		}
	}
	inUpd.Apply(m.InEmb, -lr*invG)
	if outDense {
		outGrad := results[0].OutputGrad
		tensor.Scale(outGrad.Rows.Data, invG)
		core.Update{Indices: outGrad.Indices, Rows: outGrad.Rows}.Apply(m.OutEmb, -lr)
	} else {
		outUpd.Apply(m.OutEmb, -lr*invG)
	}
	t.opt.Step(m.DenseParams(), lr)

	agg.syncTime = time.Since(phaseStart)
	agg.simSync = t.clock.Now() - agg.simAfterCompute
	if t.tel != nil || t.cfg.Trace != nil {
		t.observeStep(computeStart, phaseStart, agg)
	}
	return agg, nil
}

// Validate computes mean validation loss (nats) on rank 0's replica.
func (t *Trainer) Validate() float64 { return t.models[0].Score(t.valid, t.cfg.SeqLen) }

// ReplicasInSync checks §II-B's invariant that every rank holds the same
// parameters. The ranks share one set of weights, so what it checks is that
// sharing: every replica's embeddings and dense tensors must be rank 0's own
// storage. It returns the first tensor that is not.
func (t *Trainer) ReplicasInSync() error {
	ref := t.models[0].Weights()
	for r := 1; r < t.cfg.Ranks; r++ {
		for i, p := range t.models[r].Weights() {
			if &p.Value[0] != &ref[i].Value[0] {
				return fmt.Errorf("trainer: rank %d %s is not rank 0's", r, ref[i].Name)
			}
		}
	}
	return nil
}
