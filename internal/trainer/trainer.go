// Package trainer runs synchronous data-parallel language-model training
// over the simulated cluster, wiring together every substrate exactly the
// way §II-B describes the production workflow:
//
//   - each rank (goroutine) owns a full model replica and a private shard
//     of the training stream;
//   - dense RNN/projection gradients synchronize with a ring ALLREDUCE;
//   - input-embedding gradients go through a pluggable core.Exchanger —
//     the baseline ALLGATHER or the paper's unique exchange;
//   - output-embedding gradients do the same under sampled softmax, with
//     the per-rank sampler seeds assigned by a §III-B seeding strategy;
//     under full softmax (char LM) they ALLREDUCE like dense parameters;
//   - FP16 wire compression (§III-C) applies to all gradient payloads when
//     configured.
//
// Replicas start identical and receive identical global updates each step,
// so they stay bit-identical — the invariant §II-B states ("the model
// parameters on all GPUs are the same during the next training step"),
// which the tests assert.
package trainer

import (
	"fmt"
	"log/slog"
	"math"
	"time"

	"zipflm/internal/ckpt"
	"zipflm/internal/cluster"
	"zipflm/internal/collective"
	"zipflm/internal/compress"
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
	// NewOptimizer builds one dense-parameter optimizer per rank (stateful
	// optimizers like Adam must not share state across replicas); nil
	// means SGD.
	NewOptimizer func() optim.Optimizer
	// NewSampler builds the sampled-softmax candidate source for a given
	// seed; nil means the paper's log-uniform sampler. The exact-unigram
	// alias sampler is the main alternative
	// (sampling.NewUnigramSampler).
	NewSampler func(vocab int, seed uint64) sampling.CandidateSampler
	// BaseSeed makes the whole run reproducible.
	BaseSeed uint64
	// Workers selects the tensor compute backend for every replica: > 1
	// tiles each matmul across that many goroutines (one shared
	// tensor.Parallel — the ranks' kernel calls serialize on it, each call
	// then using every worker, like simulated GPUs sharing one device).
	// 0 keeps the process default (tensor.Default, which honors
	// ZIPFLM_WORKERS); 1 forces the serial reference. Every setting
	// produces bit-identical replicas, gradients, and losses — the backend
	// contract — so Workers is a speed knob, not part of the trajectory,
	// and deliberately not persisted in checkpoints.
	Workers int
	// DeviceCapacity bounds per-rank memory (0 = unlimited).
	DeviceCapacity int64
	// ClipNorm, when > 0, clips each dense gradient tensor's L2 norm.
	ClipNorm float64
	// Overlap takes the dense-gradient reduction off the step's critical
	// path: a per-rank worker issues each dense layer's all-reduce on the
	// communicator's side lane the moment that layer's backward pass
	// completes, overlapping communication of layer L with backpropagation
	// of layer L−1 and with the sparse embedding exchange on the primary
	// lane. The worker calls the same dense-gradient function the
	// synchronous mode calls, so Overlap composes with Wire, Compress and
	// Hardware. Gradients, wire bytes, and replicas are bit-identical to the
	// synchronous path (tested; see Compress for the one exception).
	Overlap bool
	// Hardware, when non-nil, threads the virtual clock through the run:
	// every collective advances the participating ranks' clocks by
	// α + bytes/β on the profile's ring link, per-step compute advances
	// each rank by SimFLOPsPerStep ÷ achieved FLOP/s, and the embedding
	// updates advance by their read-modify-write bytes ÷ MemBW. StepStats
	// then carries the predicted wall-clock decomposition next to the
	// measured one. nil (the default) leaves every hot path on the exact
	// pre-simulation code path. With Overlap the side lane is priced on
	// per-rank lane clocks beside the device clocks: a layer's reduction
	// starts no earlier than the virtual time its gradients were ready (the
	// compute charge is split at the backward hooks to say when that is)
	// and the rank's clock joins its lane clock when the step drains, so
	// the predicted step is the critical path of compute and communication,
	// not their sum.
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
	// CheckpointKeepLast / CheckpointKeepEvery tune the store's retention
	// (keep-last-N rollback tier, keep-every-K-steps archive tier); zero
	// values take ckpt.NewDir's defaults.
	CheckpointKeepLast  int
	CheckpointKeepEvery int
	// Faults injects rank failures at simulated times: after any step
	// whose virtual clock crosses a scheduled failure, the trainer rolls
	// every replica back to the last checkpoint (or the initial state) and
	// replays. The schedule is in virtual seconds, so it needs Hardware; New
	// rejects Faults without it as malformed input — a failure time means
	// nothing without a clock to read it against.
	Faults *ckpt.FaultPlan
	// SimCheckpointSeconds is the modeled wall-clock cost of writing one
	// checkpoint at paper scale (state bytes ÷ storage bandwidth), charged
	// to every rank's clock at each capture — checkpoints are a global
	// barrier. Only meaningful with Hardware.
	SimCheckpointSeconds float64
	// SimRestartSeconds is the modeled cost of detecting a dead rank,
	// reloading the checkpoint on its replacement, and rejoining. Only
	// meaningful with Hardware.
	SimRestartSeconds float64
	// Compress, when non-nil, routes dense gradients through the adaptive
	// gradient-compression subsystem (internal/compress): top-k with
	// per-tensor error-feedback residuals via the compressed all-reduce,
	// or 8-bit per-chunk quantization on the ring wire, per the config's
	// policy. Composes with any Exchange engine and with the FP16 Wire
	// (top-k values then travel as FP16 too); the residual state is
	// carried through checkpoints so resumed runs stay bit-identical. With
	// Overlap the tensors reach the engine in backward order (projection,
	// RNN, output embedding) rather than DenseParams order: top-k (per-tensor
	// carry) and deterministic q8 do not depend on call order and equal the
	// synchronous run bitwise; stochastic q8 draws from one per-rank stream
	// in call order, so an overlapped run is reproducible and resume-exact
	// but not equal to its synchronous twin.
	Compress *compress.Config
	// Telemetry, when non-nil, publishes the trainer's step/phase metrics
	// (and the communicator's and checkpoint store's) into the registry.
	// Purely observational: the trajectory is bit-identical with or
	// without it (tested), and nil keeps every hot path uninstrumented.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, records the run's timeline at two granularities,
	// each span stamped with wall time and the virtual clock. Aggregate
	// spans (cat "train", tid 0) cover each step's compute and sync phases
	// plus checkpoint saves and fault-rollback instants; summing their
	// virtual durations reproduces StepStats.SimComputeSeconds /
	// SimSyncSeconds exactly. Per-rank spans (cat "rank", tid = rank) split
	// each rank's step into compute / exchange / update, and the attached
	// communicator adds per-collective-op spans (cat "collective") — the
	// detail internal/traceview's critical-path analyzer attributes
	// stragglers and sync-wait from. Export with Tracer.WriteChromeTrace.
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

// SimStepSeconds returns the predicted wall-clock of one step — the
// virtual-clock total divided by steps. Zero without Config.Hardware.
func (s StepStats) SimStepSeconds() float64 {
	if s.Steps == 0 {
		return 0
	}
	return (s.SimComputeSeconds + s.SimSyncSeconds) / float64(s.Steps)
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

// Trainer owns the replicas and shards.
type Trainer struct {
	cfg    Config
	clu    *cluster.Cluster
	comm   *collective.Comm
	models []*model.LM
	opts   []optim.Optimizer
	ws     []*core.Workspace
	shards [][]int
	valid  []int
	// step is the global training-step counter; Run and Steps both
	// advance it, so interleaved calls keep consuming fresh batches (and
	// fresh per-step sampler seeds) instead of retraining from zero. lr
	// and nextDecay carry the per-epoch decay schedule across calls the
	// same way, so a resumed Run continues the decayed trajectory rather
	// than restarting from cfg.LR.
	step      int
	lr        float64
	nextDecay int
	// dense[r] is rank r's dense gradients as reduceDense units.
	dense []rankDense
	// cmp holds one compression engine per rank (nil when Config.Compress
	// is nil): the per-rank error-feedback residuals and quantizer
	// streams.
	cmp []*compress.Engine
	// laneClocks are the per-rank virtual clocks of the communicator's side
	// lane (nil unless both Overlap and Hardware are set).
	laneClocks []*vclock.Clock
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
	if cfg.Faults != nil && cfg.Hardware == nil {
		// Input validation, not a missing feature: the failure schedule is
		// written in virtual seconds and only Hardware gives the run a clock.
		return nil, fmt.Errorf("trainer: Faults need Hardware — failure times are defined on the virtual clock")
	}
	t := &Trainer{
		cfg:   cfg,
		clu:   cluster.New(cfg.Ranks, cfg.DeviceCapacity),
		comm:  collective.New(cfg.Ranks),
		valid: valid,
	}
	if cfg.Telemetry != nil {
		t.tel = newTrainerTelemetry(cfg.Telemetry)
		t.comm.AttachTelemetry(cfg.Telemetry)
		cfg.Telemetry.ObserveTracer(cfg.Trace)
	}
	if cfg.Trace != nil {
		t.comm.AttachTrace(cfg.Trace)
	}
	if cfg.Hardware != nil {
		// Thread the virtual clock: the flat communicator's ring runs on
		// PCIe while the cluster fits in one node, on the InfiniBand
		// boundary once it spans nodes (Table II).
		link := cfg.Hardware.RingLink(cfg.Ranks)
		t.comm.AttachCost(&collective.CostModel{Link: link, Clocks: t.clu.Clocks()})
		if cfg.Overlap {
			// The side lane shares the fabric but keeps its own timeline.
			t.laneClocks = make([]*vclock.Clock, cfg.Ranks)
			for r := range t.laneClocks {
				t.laneClocks[r] = new(vclock.Clock)
			}
			t.comm.Side().AttachCost(&collective.CostModel{Link: link, Clocks: t.laneClocks})
		}
	}
	t.ws = make([]*core.Workspace, cfg.Ranks)
	for r := range t.ws {
		t.ws[r] = core.NewWorkspace()
	}
	// Identical replicas: build rank 0, copy into the rest.
	t.models = make([]*model.LM, cfg.Ranks)
	t.opts = make([]optim.Optimizer, cfg.Ranks)
	mc := cfg.Model
	mc.Seed = cfg.BaseSeed
	var be tensor.Backend
	if cfg.Workers > 0 {
		be = tensor.New(cfg.Workers)
	}
	for r := 0; r < cfg.Ranks; r++ {
		t.models[r] = model.NewLM(mc)
		if be != nil {
			t.models[r].SetBackend(be)
		}
		if r > 0 {
			t.models[r].CopyWeightsFrom(t.models[0])
		}
		t.opts[r] = cfg.NewOptimizer()
	}
	t.dense = make([]rankDense, cfg.Ranks)
	for r, m := range t.models {
		d := rankDense{
			all:    newDenseGrads(m.DenseParams()),
			layer:  make(map[model.Layer]denseGrads),
			outemb: newDenseGrads([]model.Param{{Name: "outemb"}}),
		}
		for _, l := range m.DenseLayers() {
			d.layer[l] = newDenseGrads(l.Params())
		}
		t.dense[r] = d
	}
	t.shards = make([][]int, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		t.shards[r] = train[r*perRank : (r+1)*perRank]
	}
	if cfg.Compress != nil {
		cc, err := cfg.Compress.Validate()
		if err != nil {
			return nil, fmt.Errorf("trainer: %w", err)
		}
		if cc.Seed == 0 {
			// Tie the quantizer streams to the run seed so the whole run
			// stays reproducible from BaseSeed alone.
			cc.Seed = cfg.BaseSeed ^ 0xc0445e55c0445e55
		}
		t.cmp = make([]*compress.Engine, cfg.Ranks)
		for r := range t.cmp {
			t.cmp[r] = compress.NewEngine(cc, cfg.Wire, r)
		}
	}
	t.lr = cfg.LR
	t.nextDecay = t.StepsPerEpoch()
	if cfg.CheckpointDir != "" {
		dir, err := ckpt.NewDir(cfg.CheckpointDir, cfg.CheckpointKeepLast, cfg.CheckpointKeepEvery)
		if err != nil {
			return nil, fmt.Errorf("trainer: %w", err)
		}
		dir.Instrument(cfg.Telemetry)
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
// to an uninterrupted one. The one exception is logged: a checkpoint from
// before format 3 kept float64 Adam moments, which decoding rounded to
// float32.
func Resume(cfg Config, dir string, train, valid []int) (*Trainer, error) {
	d, err := ckpt.NewDir(dir, cfg.CheckpointKeepLast, cfg.CheckpointKeepEvery)
	if err != nil {
		return nil, fmt.Errorf("trainer: %w", err)
	}
	st, err := d.Latest()
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
	if st.RoundedMoments() {
		slog.Warn("checkpoint predates format 3: its float64 Adam moments were rounded to float32, so the resumed run is not bit-identical to the one that wrote it",
			"dir", dir, "step", st.Step)
	}
	return t, nil
}

// CaptureState snapshots the full training state at the current step
// boundary: model weights and optimizer state once (replicas are
// bit-identical between steps — the §II-B invariant ReplicasInSync
// asserts), RNG streams and carried recurrent state per rank, and the
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
	}
	if sn, ok := t.opts[0].(optim.Snapshotter); ok {
		st.Opt = sn.Snapshot()
	}
	for r := 0; r < t.cfg.Ranks; r++ {
		st.RNG = append(st.RNG, t.models[r].RNGState())
	}
	if t.cfg.Model.Stateful {
		for r := 0; r < t.cfg.Ranks; r++ {
			st.RNN = append(st.RNN, t.models[r].CarriedRNNState())
		}
	}
	if t.cmp != nil {
		// Per-rank error-feedback residuals: unsent gradient mass is part
		// of the training state, so dropping it on resume would change the
		// trajectory.
		for r := 0; r < t.cfg.Ranks; r++ {
			st.Compress = append(st.Compress, t.cmp[r].Snapshot())
		}
	}
	return st, nil
}

// RestoreState reinstates a state captured by CaptureState (possibly in a
// previous process): every replica's weights, every optimizer's moments,
// per-rank RNG streams and carried recurrent state, and the step/LR
// position. After it returns, the next trained step is exactly the one an
// uninterrupted run would have executed.
func (t *Trainer) RestoreState(st *ckpt.State) error {
	if st.Ranks != t.cfg.Ranks {
		return fmt.Errorf("trainer: checkpoint spans %d ranks, cluster has %d", st.Ranks, t.cfg.Ranks)
	}
	lm, err := st.LM()
	if err != nil {
		return fmt.Errorf("trainer: restore: %w", err)
	}
	if lm.Cfg != t.models[0].Cfg {
		return fmt.Errorf("trainer: checkpoint model %+v does not match configured %+v", lm.Cfg, t.models[0].Cfg)
	}
	if st.Opt.Kind != "" {
		for r := 0; r < t.cfg.Ranks; r++ {
			sn, ok := t.opts[r].(optim.Snapshotter)
			if !ok {
				return fmt.Errorf("trainer: checkpoint carries %q optimizer state but the configured optimizer cannot restore it", st.Opt.Kind)
			}
			if err := sn.Restore(st.Opt); err != nil {
				return fmt.Errorf("trainer: restore: %w", err)
			}
		}
	}
	for r := 0; r < t.cfg.Ranks; r++ {
		t.models[r].CopyWeightsFrom(lm)
		if len(st.RNG) == t.cfg.Ranks {
			t.models[r].SetRNGState(st.RNG[r])
		}
		if len(st.RNN) == t.cfg.Ranks {
			if err := t.models[r].SetCarriedRNNState(st.RNN[r]); err != nil {
				return fmt.Errorf("trainer: restore: %w", err)
			}
		} else {
			t.models[r].ResetRNNState()
		}
	}
	if t.cmp != nil {
		if len(st.Compress) != t.cfg.Ranks {
			return fmt.Errorf("trainer: Compress configured but checkpoint carries %d compression states for %d ranks", len(st.Compress), t.cfg.Ranks)
		}
		for r := 0; r < t.cfg.Ranks; r++ {
			if err := t.cmp[r].Restore(st.Compress[r]); err != nil {
				return fmt.Errorf("trainer: restore: %w", err)
			}
		}
	} else if len(st.Compress) != 0 {
		return fmt.Errorf("trainer: checkpoint carries compression state but Compress is not configured")
	}
	t.step = st.Step
	t.lr = st.LR
	t.nextDecay = st.NextDecay
	t.lastCkpt = st
	return nil
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
		vtsBefore := t.clu.MaxClock()
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
			vclock.SyncAdvance(t.clu.Clocks(), t.cfg.SimCheckpointSeconds)
			t.ftStats.SimCheckpointSeconds += t.cfg.SimCheckpointSeconds
		}
		if t.tel != nil {
			t.tel.checkpoints.Inc()
		}
		t.cfg.Trace.Span("train", "checkpoint", 0, ckptStart, time.Since(ckptStart),
			vtsBefore, t.clu.MaxClock()-vtsBefore)
		t.cfg.Flight.Record(slog.LevelInfo, "checkpoint",
			"step", t.step, "vclock_s", t.clu.MaxClock(), "on_disk", t.ckptDir != nil)
	}
	if t.cfg.Faults != nil {
		for {
			now := t.clu.MaxClock()
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
				vclock.SyncAdvance(t.clu.Clocks(), t.cfg.SimRestartSeconds)
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

// batchAt slices one (T×B) batch out of a shard at the given step index.
// In stateless mode sequence b of step s starts at an arbitrary wrapped
// offset; in stateful mode the shard is divided into B contiguous lanes and
// consecutive steps read consecutive windows of each lane, so the carried
// RNN state always continues the text it left off (standard truncated-BPTT
// feeding).
func (t *Trainer) batchAt(shard []int, step int) (inputs, targets [][]int) {
	b := t.cfg.BatchPerRank
	s := t.cfg.SeqLen
	usable := len(shard) - 1
	inputs = make([][]int, s)
	targets = make([][]int, s)
	for st := 0; st < s; st++ {
		inputs[st] = make([]int, b)
		targets[st] = make([]int, b)
	}
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

// Model returns rank r's replica (replicas are identical between steps).
func (t *Trainer) Model(r int) *model.LM { return t.models[r] }

// Comm exposes the communicator for traffic inspection.
func (t *Trainer) Comm() *collective.Comm { return t.comm }

// Cluster exposes the device accountants.
func (t *Trainer) Cluster() *cluster.Cluster { return t.clu }

// SimSeconds returns the run's predicted wall-clock so far: the latest
// virtual time across ranks. Zero unless Config.Hardware is set.
func (t *Trainer) SimSeconds() float64 { return t.clu.MaxClock() }

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
	seeds := sampling.Assign(t.cfg.SeedStrategy, t.cfg.Ranks, t.cfg.BaseSeed+1)

	target := t.step + epochs*stepsPerEpoch
	lastEval := t.step - evalEvery
	for t.step < target {
		step := t.step
		lr := t.lrForStep()
		t.resetStateAtEpoch()
		stats, err := t.trainStep(step, lr, seeds)
		if err != nil {
			return res, err
		}
		t.step++
		res.Stats.Steps++
		res.Stats.InputUniqueGlobal += int64(stats.inUnique)
		res.Stats.OutputUniqueGlobal += int64(stats.outUnique)
		res.Stats.ComputeTime += stats.computeTime
		res.Stats.SyncTime += stats.syncTime
		res.Stats.SimComputeSeconds += stats.simCompute
		res.Stats.SimSyncSeconds += stats.simSync

		rolled, err := t.afterStep()
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
	seeds := sampling.Assign(t.cfg.SeedStrategy, t.cfg.Ranks, t.cfg.BaseSeed+1)
	target := t.step + n
	for t.step < target {
		t.resetStateAtEpoch()
		if _, err := t.trainStep(t.step, t.lrForStep(), seeds); err != nil {
			return err
		}
		t.step++
		if _, err := t.afterStep(); err != nil {
			return err
		}
	}
	return nil
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

// denseGrads is one unit of reduceDense work: named gradient tensors (what
// Compress routes by) and the same slices as a ring part list. Units are
// built once, in New: peers read a part list through the ring until the
// collective closes, and rebuilding one per call would allocate every step.
type denseGrads struct {
	params []model.Param
	parts  [][]float32
}

func newDenseGrads(ps []model.Param) denseGrads {
	d := denseGrads{params: ps, parts: make([][]float32, len(ps))}
	for i, p := range ps {
		d.parts[i] = p.Grad
	}
	return d
}

// rankDense is one rank's units: all of DenseParams (synchronous mode walks
// it a tensor at a time), one per dense layer (what overlap mode's backward
// hook queues), and the one-tensor unit each step points at the full
// softmax's output gradient, which lives in the replica's workspace.
type rankDense struct {
	all    denseGrads
	layer  map[model.Layer]denseGrads
	outemb denseGrads
}

// denseJob is one batch of dense gradients handed to a rank's side-lane
// worker: the tensors, and the time on the producing rank's device clock at
// which they held their final values (zero without Hardware).
type denseJob struct {
	grads   denseGrads
	readyAt float64
}

// denseWorker is one rank's side-lane reducer for one overlapped step: a
// goroutine that reduces the jobs sent to it, in order, while the rank's own
// goroutine keeps backpropagating and runs the sparse exchange. It lives
// for one step — startDenseWorker to drain — so a Trainer owns no
// goroutines between steps.
type denseWorker struct {
	jobs chan denseJob
	done chan struct{}
	// clock is the rank's side-lane virtual clock (nil without Hardware).
	clock *vclock.Clock
	// err is the first reduceDense failure; the worker writes it, drain
	// reads it after done.
	err error
}

// startDenseWorker launches rank's worker for one step. Every rank sends
// the same jobs in the same order, which is what matches the workers'
// side-lane collectives up; after a failure (symmetric across ranks, like
// every collective error) the remaining jobs are discarded.
func (t *Trainer) startDenseWorker(rank int) *denseWorker {
	w := &denseWorker{
		// One job per dense layer plus the output embedding: sends never
		// block the backward pass.
		jobs: make(chan denseJob, len(t.models[rank].DenseLayers())+1),
		done: make(chan struct{}),
	}
	if t.laneClocks != nil {
		w.clock = t.laneClocks[rank]
	}
	go func() {
		defer close(w.done)
		for j := range w.jobs {
			if w.err != nil {
				continue
			}
			if w.clock != nil {
				// The lane is free at its own clock; the payload exists from
				// readyAt. The collective's charge then max-syncs the ranks.
				w.clock.AdvanceTo(j.readyAt)
			}
			w.err = t.reduceDense(t.comm.Side(), rank, j.grads)
		}
	}()
	return w
}

// drain closes the worker's queue and waits until every job has fully
// reduced, then joins the lane's virtual timeline into the rank's device
// clock. It must run on every exit path of the step: until the worker's
// last collective closes, peer ranks' ring hops still read aliases of this
// rank's gradient tensors (zero-copy), so returning earlier would leave
// dangling readers behind an aborted step. A nil worker (synchronous mode)
// has nothing to drain.
func (w *denseWorker) drain(dev *cluster.Device) error {
	if w == nil {
		return nil
	}
	close(w.jobs)
	<-w.done
	if w.clock != nil {
		dev.Clock.AdvanceTo(w.clock.Now())
	}
	return w.err
}

// reduceDense all-reduces the dense gradients d across ranks on lane c —
// the one dense-gradient path of both modes. With Compress each named
// tensor goes through the rank's compression engine, which routes it per
// policy (base wire, quantized ring, or top-k with error feedback);
// otherwise the tensors travel in one fused ring pass on the run's wire.
func (t *Trainer) reduceDense(c *collective.Comm, rank int, d denseGrads) error {
	if t.cmp != nil {
		for _, p := range d.params {
			if err := t.cmp[rank].AllReduce(c, rank, p.Name, p.Grad); err != nil {
				return err
			}
		}
		return nil
	}
	c.AllReduceParts(rank, d.parts, t.cfg.Wire)
	return nil
}

// trainStep executes one synchronous step across all ranks.
//
// Both modes reduce dense gradients through reduceDense; cfg.Overlap decides
// only when and on which lane. Synchronous mode calls it in phase 2 on the
// primary lane, one tensor at a time. Overlap mode calls it from each rank's
// denseWorker on the side lane: a backward hook hands a layer over the
// moment it finishes backpropagating (overlapping the reduction of layer L
// with the backprop of layer L−1), phase 2 hands over the full-softmax
// output gradient, and the sparse embedding exchange then proceeds on the
// primary lane while the dense reductions are still in flight. Both modes
// apply bit-identical arithmetic to each tensor, so replicas and wire-byte
// counters match exactly between them.
func (t *Trainer) trainStep(step int, lrNow float64, seeds []uint64) (stepStats, error) {
	g := t.cfg.Ranks
	results := make([]model.StepResult, g)
	samplers := make([]sampling.CandidateSampler, g)
	workers := make([]*denseWorker, g)
	var agg stepStats

	sim := t.cfg.Hardware
	if sim != nil {
		agg.simStart = t.clu.MaxClock()
	}

	// Phase 1 (parallel): forward/backward on every rank, with dense
	// reductions streaming out mid-backprop in Overlap mode.
	phaseStart := time.Now()
	_ = t.clu.Run(func(rank int, dev *cluster.Device) error {
		var cT0 time.Time
		var cV0 float64
		if t.cfg.Trace != nil {
			cT0 = time.Now()
			cV0 = dev.Clock.Now()
		}
		m := t.models[rank]
		m.ZeroGrads()
		var sampler sampling.CandidateSampler
		if t.cfg.Model.Sampled > 0 {
			// Re-seed per step so ranks sharing a §III-B seed draw the
			// same candidates every step while the stream still varies
			// across steps.
			stepSeed := seeds[rank] + uint64(step)*0x9e3779b9
			if t.cfg.NewSampler != nil {
				sampler = t.cfg.NewSampler(t.cfg.Model.Vocab, stepSeed)
			} else {
				sampler = sampling.NewSampler(t.cfg.Model.Vocab, stepSeed)
			}
		}
		samplers[rank] = sampler
		inputs, targets := t.batchAt(t.shards[rank], step)

		// The forward/backward pass: modeled FLOPs at the workload's
		// achieved fraction of peak, charged to this rank's clock. The
		// synchronous mode charges them in one lump after the pass. Overlap
		// mode has to say when each layer's gradients were ready, so it
		// walks the clock to the same end point in stages: the forward pass
		// is a third of the FLOPs, and the backward two thirds have
		// progressed by the finished layers' share of the dense parameters.
		flops := int64(t.cfg.SimFLOPsPerStep)
		var start, lump float64
		if sim != nil && flops > 0 {
			start = dev.Clock.Now()
			lump = sim.ComputeSeconds(float64(flops), t.cfg.SimAchievedFrac)
		}
		var hook model.BackwardHook
		if t.cfg.Overlap {
			w := t.startDenseWorker(rank)
			workers[rank] = w
			var total, ready int
			if lump > 0 {
				total = model.NumParams(m.DenseLayers()...)
			}
			hook = func(layer model.Layer) {
				d := t.dense[rank].layer[layer]
				if total > 0 {
					for _, p := range d.parts {
						ready += len(p)
					}
					dev.Clock.AdvanceTo(start + lump*(1+2*float64(ready)/float64(total))/3)
				}
				w.jobs <- denseJob{grads: d, readyAt: dev.Clock.Now()}
			}
		}
		results[rank] = m.ForwardBackwardHooked(inputs, targets, sampler, hook)
		if lump > 0 {
			if t.cfg.Overlap {
				dev.AddFLOPs(flops)
				dev.Clock.AdvanceTo(start + lump)
			} else {
				dev.AdvanceCompute(flops, *sim, t.cfg.SimAchievedFrac)
			}
		}
		if tr := t.cfg.Trace; tr != nil {
			tr.Span("rank", "compute", rank, cT0, time.Since(cT0), cV0, dev.Clock.Now()-cV0)
		}
		return nil
	})
	agg.computeTime = time.Since(phaseStart)
	if sim != nil {
		agg.simAfterCompute = t.clu.MaxClock()
		agg.simCompute = agg.simAfterCompute - agg.simStart
	}
	computeStart := phaseStart
	phaseStart = time.Now()

	// Phase 2 (parallel): synchronize and update.
	lr := float32(lrNow)
	invG := float32(1.0 / float64(g))
	errs := make([]error, g)
	inStats := make([]core.Stats, g)
	outStats := make([]core.Stats, g)
	_ = t.clu.Run(func(rank int, dev *cluster.Device) error {
		var exT0, upT0 time.Time
		var exV0, exV1 float64
		if t.cfg.Trace != nil {
			exT0 = time.Now()
			exV0 = dev.Clock.Now()
		}
		m := t.models[rank]
		ctx := &core.Ctx{Rank: rank, Comm: t.comm, Dev: dev, Wire: t.cfg.Wire, WS: t.ws[rank]}
		outDense := t.cfg.Model.Sampled == 0
		outGrad := results[rank].OutputGrad
		w := workers[rank]

		// Dense gradients. The full-softmax output gradient is a dense V×D
		// block that all-reduces like an RNN parameter; it is
		// embedding-shaped, so its name opts it into a compression policy's
		// Zipf-derived embedding ratio. Overlap mode queued the layers during
		// backprop and only adds that block here, leaving the side lane to
		// run under the sparse exchange below; synchronous mode reduces
		// everything now.
		var outemb denseGrads
		if outDense {
			outemb = t.dense[rank].outemb
			outemb.params[0].Grad = outGrad.Rows.Data
			outemb.parts[0] = outGrad.Rows.Data
		}
		if w == nil {
			// One tensor per call.
			for _, d := range [2]denseGrads{t.dense[rank].all, outemb} {
				for i := range d.params {
					if err := t.reduceDense(t.comm, rank, denseGrads{d.params[i : i+1], d.parts[i : i+1]}); err != nil {
						errs[rank] = err
						return nil
					}
				}
			}
		} else if outDense {
			w.jobs <- denseJob{grads: outemb, readyAt: dev.Clock.Now()}
		}

		// Input embedding: the §III exchange (on the primary lane, so in
		// Overlap mode it runs concurrently with the dense reductions).
		upd, st, err := t.cfg.Exchange.Exchange(ctx, results[rank].InputGrad)
		if err != nil {
			errs[rank] = err
			_ = w.drain(dev) // the exchange failure is the one reported
			return nil
		}
		inStats[rank] = st

		// Output embedding under sampled softmax goes through the exchange
		// too.
		var updOut core.Update
		if !outDense {
			var stOut core.Stats
			updOut, stOut, err = t.cfg.Exchange.Exchange(ctx, outGrad)
			if err != nil {
				errs[rank] = err
				_ = w.drain(dev) // as above
				return nil
			}
			outStats[rank] = stOut
		}

		// Wait for the side lane, then post-process: averaging, clipping
		// and the embedding updates apply the same arithmetic to the same
		// tensors in both modes.
		if err := w.drain(dev); err != nil {
			errs[rank] = err
			return nil
		}
		if tr := t.cfg.Trace; tr != nil {
			// The exchange span closes once every collective this rank
			// joined has completed — its virtual duration is wire time
			// plus whatever this rank waited at the barriers, which is
			// exactly the sync-wait the critical-path analyzer splits out.
			exV1 = dev.Clock.Now()
			tr.Span("rank", "exchange", rank, exT0, time.Since(exT0), exV0, exV1-exV0)
			upT0 = time.Now()
		}
		for _, p := range m.DenseParams() {
			tensor.Scale(p.Grad, invG)
			if t.cfg.ClipNorm > 0 {
				tensor.ClipL2(p.Grad, t.cfg.ClipNorm)
			}
		}
		upd.Apply(m.InEmb, -lr*invG)
		if !outDense {
			updOut.Apply(m.OutEmb, -lr*invG)
		} else {
			tensor.Scale(outGrad.Rows.Data, invG)
			core.Update{Indices: outGrad.Indices, Rows: outGrad.Rows}.
				Apply(m.OutEmb, -lr)
		}
		if sim != nil {
			// Embedding updates are a read-modify-write over the touched
			// rows: 2× row bytes of device-memory traffic (§III-A's
			// conflict-free update runs at full memory bandwidth).
			b := 2 * int64(len(upd.Indices)) * int64(m.InEmb.Cols) * 4
			if !outDense {
				b += 2 * int64(len(updOut.Indices)) * int64(m.OutEmb.Cols) * 4
			} else {
				b += 2 * int64(len(outGrad.Indices)) * int64(m.OutEmb.Cols) * 4
			}
			dev.AdvanceMemory(b, *sim)
		}
		if tr := t.cfg.Trace; tr != nil {
			tr.Span("rank", "update", rank, upT0, time.Since(upT0), exV1, dev.Clock.Now()-exV1)
		}
		return nil
	})
	for _, e := range errs {
		if e != nil {
			return agg, e
		}
	}

	// Dense optimizer step: every rank applies the identical averaged
	// gradient through its own optimizer instance, keeping replicas (and
	// any Adam state) bit-identical. Its own fan-out, after the errs check,
	// so no rank's optimizer moves unless every rank's exchange succeeded.
	_ = t.clu.Run(func(rank int, _ *cluster.Device) error {
		t.opts[rank].Step(t.models[rank].DenseParams(), lr)
		return nil
	})

	agg.inUnique = inStats[0].UniqueGlobal
	agg.outUnique = outStats[0].UniqueGlobal
	agg.syncTime = time.Since(phaseStart)
	if sim != nil {
		agg.simSync = t.clu.MaxClock() - agg.simAfterCompute
	}
	if t.tel != nil || t.cfg.Trace != nil {
		t.observeStep(computeStart, phaseStart, agg)
	}
	return agg, nil
}

// Validate computes mean validation loss (nats) on rank 0's replica.
func (t *Trainer) Validate() float64 {
	if len(t.valid) < 2 {
		return math.NaN()
	}
	lossSum, count := t.models[0].EvalLoss(t.valid, t.cfg.SeqLen)
	if count == 0 {
		return math.NaN()
	}
	return lossSum / float64(count)
}

// ReplicasInSync verifies every replica's parameters match rank 0 exactly —
// the §II-B synchronization invariant. Returns the first mismatch found.
func (t *Trainer) ReplicasInSync() error {
	ref := t.models[0]
	for r := 1; r < t.cfg.Ranks; r++ {
		m := t.models[r]
		for i := range ref.InEmb.Data {
			if m.InEmb.Data[i] != ref.InEmb.Data[i] {
				return fmt.Errorf("trainer: rank %d input embedding diverged at %d", r, i)
			}
		}
		for i := range ref.OutEmb.Data {
			if m.OutEmb.Data[i] != ref.OutEmb.Data[i] {
				return fmt.Errorf("trainer: rank %d output embedding diverged at %d", r, i)
			}
		}
		refs := ref.DenseParams()
		ps := m.DenseParams()
		for pi := range refs {
			for i := range refs[pi].Value {
				if refs[pi].Value[i] != ps[pi].Value[i] {
					return fmt.Errorf("trainer: rank %d %s diverged at %d", r, refs[pi].Name, i)
				}
			}
		}
	}
	return nil
}
