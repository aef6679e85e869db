package experiments

import (
	"errors"
	"fmt"
	"time"

	"zipflm/internal/cluster"
	"zipflm/internal/collective"
	"zipflm/internal/core"
	"zipflm/internal/half"
	"zipflm/internal/metrics"
	"zipflm/internal/sampling"
	"zipflm/internal/tensor"
	"zipflm/internal/vclock"
)

func init() {
	register("weakscale",
		"Weak scaling (online virtual clock): baseline vs unique exchange, predicted step time and epoch hours, 8-128 GPUs",
		runWeakScale)
}

// This file is the online counterpart of the strong-scaling tables: instead
// of evaluating closed-form cost formulas, it *runs* the exchange engines on
// the simulated cluster with the virtual clock threaded through every
// collective (cost.go's α–β charging on the Table II links), sweeps the
// cluster size at fixed per-rank work (weak scaling), and reads predicted
// step time off the clock. The paper's qualitative story emerges online:
// the baseline ALLGATHER becomes communication/update-bound and then hits
// the 12 GB memory wall, while the uniqueness exchange stays near-flat.

// weakRun is one engine's simulated synchronous step at scale G.
type weakRun struct {
	// oom is true when the exchange aborted on the device budget (the
	// paper's "*" rows).
	oom bool
	// ugIn / ugOut are the measured global unique counts.
	ugIn, ugOut int
	// sparseWire is the measured per-rank wire volume of the exchanges.
	sparseWire int64
	// commSec / computeSec / updateSec / overheadSec decompose the step;
	// stepSec is their total (the final virtual time).
	commSec, computeSec, updateSec, overheadSec, stepSec float64
}

// runWeakStep executes one synchronous step's synchronization at scale g
// online — sparse exchanges run for real through the cost-modeled
// collectives; dense all-reduce, compute, embedding update and framework
// overhead are charged onto the same clock from the workload's calibrated
// constants — and returns the virtual-clock decomposition. The step is
// bulk-synchronous, so one clock prices it for every rank.
func runWeakStep(w scalingWorkload, g int, baseline, unlimitedMem bool, seed uint64) (weakRun, error) {
	hw := w.hardware()
	var capacity int64
	switch {
	case unlimitedMem:
		capacity = 0
	case baseline:
		// The TF-1.4 baseline replicates gradient staging BaselineStaging×
		// on top of the base model/activation footprint (calibrated to
		// §V-A's measured GB points), so the budget left for one
		// exchange's raw scratch is (capacity − base) / staging.
		capacity = int64(float64(hw.MemBytes-w.BaseMemory) / w.BaselineStaging)
	default:
		capacity = hw.MemBytes - w.BaseMemoryOurs
	}
	clu := cluster.New(g, capacity)
	comm := collective.New(g)
	link := hw.RingLink(g)
	var clock vclock.Clock
	comm.AttachCost(&collective.CostModel{Link: link, Clock: &clock})

	// Engine stack: the baseline is the §II-B ALLGATHER with per-rank
	// sampler seeds and FP32 wire; "ours" is the full §III stack —
	// uniqueness + Zipf's-law seeding + FP16 compression.
	var ex core.Exchanger = core.BaselineAllGather{}
	strat := sampling.AllDifferent
	var wire collective.Wire
	if !baseline {
		ex = core.UniqueExchange{}
		strat = sampling.ZipfFreq
		wire = half.NewScaler(512)
	}

	// The same draws the closed-form tables price (drawStep), so unique
	// structure matches across experiments.
	inIdx, outIdx := drawStep(w, g, strat, seed)

	// Phase: sparse exchanges, online, every rank's in one call. Gradient
	// values are irrelevant to cost, so rows stay zero; bytes, scratch and
	// virtual time are real.
	ctxs := make([]*core.Ctx, g)
	grads := func(idx [][]int) []core.SparseGrad {
		out := make([]core.SparseGrad, g)
		for r := range out {
			out[r] = core.SparseGrad{Indices: idx[r], Rows: tensor.NewMatrix(len(idx[r]), w.D)}
		}
		return out
	}
	for r, dev := range clu.Devices {
		ctxs[r] = &core.Ctx{Rank: r, Comm: comm, Dev: dev, Wire: wire, WS: core.NewWorkspace()}
	}
	_, inStats, errs := ex.ExchangeRanks(ctxs, grads(inIdx))
	outStats := make([]core.Stats, g)
	err := errors.Join(errs...)
	if err == nil && outIdx != nil {
		// In the TF-1.4 step graph both embeddings' gathered blocks are
		// resident at once: keep the input exchange's scratch accounted
		// while the output exchange runs, and abandon it, as the engines
		// do, unless every rank could hold its share.
		ok := make([]bool, g)
		for r, dev := range clu.Devices {
			errs[r] = dev.Alloc(inStats[r].ScratchBytes)
			ok[r] = errs[r] == nil
		}
		if comm.AgreeRanks(ok) {
			_, outStats, errs = ex.ExchangeRanks(ctxs, grads(outIdx))
		}
		for r, dev := range clu.Devices {
			if ok[r] {
				dev.Free(inStats[r].ScratchBytes)
			}
		}
		err = errors.Join(errs...)
	}
	if err != nil {
		var oom *cluster.ErrOutOfMemory
		if errors.As(err, &oom) || errors.Is(err, core.ErrPeerOOM) {
			return weakRun{oom: true}, nil
		}
		return weakRun{}, err
	}

	run := weakRun{ugIn: inStats[0].UniqueGlobal, ugOut: outStats[0].UniqueGlobal}
	kc := 0 // the output exchange's rows per rank
	for r := 0; r < g; r++ {
		if b := inStats[r].WireBytes + outStats[r].WireBytes; b > run.sparseWire {
			run.sparseWire = b
		}
		kc = max(kc, outStats[r].Tokens)
	}

	// Phase: dense RNN/projection gradients — accounted, not materialized:
	// the ring all-reduce of DenseParams elements charges the same clock
	// through the same link model the live collectives used.
	es := int64(4)
	if wire != nil {
		es = 2
	}
	clock.Advance(link.RingAllReduceSeconds(g, (w.DenseParams+int64(g)-1)/int64(g)*es))
	run.commSec = clock.Now()

	// Phase: forward/backward compute at the workload's achieved fraction
	// of peak.
	clock.Advance(hw.ComputeSeconds(float64(int64(w.FLOPsPerStep)), w.AchievedFrac))
	afterCompute := clock.Now()
	run.computeSec = afterCompute - run.commSec

	// Phase: embedding update, charged as the closed-form tables charge it
	// (updateCharge), rounded to whole bytes of memory traffic.
	rows, ser := w.updateCharge(g, baseline, kc, run.ugIn, run.ugOut)
	updateBytes := int64(float64(2*rows*int64(w.D)*4) * ser)
	clock.Advance(hw.MemorySeconds(updateBytes))
	run.updateSec = clock.Now() - afterCompute

	// Phase: fixed per-step framework overhead. The strong-scaling tables
	// calibrate an additional quadratic TF-coordination term; weak scaling
	// holds per-rank work fixed, so only the base (+ linear) overhead
	// applies here.
	run.overheadSec = w.OverheadBase + w.OverheadLin*float64(g)
	clock.Advance(run.overheadSec)

	run.stepSec = clock.Now()
	return run, nil
}

func runWeakScale(opts Options) (*Report, error) {
	w := wordLM()
	gpus := []int{8, 16, 32, 64, 128}
	anchor := 8
	unlimited := false
	if opts.Quick {
		// CI-sized miniature: same code paths, no 12 GB wall (the
		// miniature scratch would never reach it anyway).
		w.K = 64
		w.D = 32
		w.Vocab = 2000
		w.Samples = 32
		w.DenseParams = 100_000
		w.FLOPsPerStep = 1e9
		w.TokensPerEpoch = 1_000_000
		gpus = []int{2, 4, 8}
		anchor = 2
		unlimited = true
	}
	hw := w.hardware()
	// Weak scaling: per-rank work fixed, data grows ∝ G, so steps/epoch is
	// pinned at the anchor configuration (the paper's Table V framing).
	stepsPerEpoch := float64(w.TokensPerEpoch) / float64(int64(anchor)*int64(w.K))

	tab := metrics.NewTable(
		fmt.Sprintf("%s weak scaling on %s (online virtual clock; K = %d tokens/GPU fixed, steps/epoch = %.0f):",
			w.Name, hw.Name, w.K, stepsPerEpoch),
		"GPUs", "engine", "U_g in", "sparse wire/rank",
		"comm", "compute", "update", "step", "epoch", "vs anchor")
	tab.SetUnits("", "", "words", "", "ms", "ms", "ms", "s", "hrs", "×")

	notes := []string{
		"engines run online over the simulated cluster: collectives advance the virtual clock by α + bytes/β on the Table II links; dense all-reduce, compute, update and overhead charge the same clock",
		"framework overhead uses the calibrated base (+ linear) term only — the strong-scaling tables' quadratic TF-coordination term does not apply at fixed per-rank work",
	}

	var anchorStep [2]float64 // per engine
	var lastRunning [2]weakRun
	var lastRunningG [2]int
	oomWall := 0
	vcursor := 0.0 // virtual-clock cursor for the emitted trace timeline
	for _, g := range gpus {
		for ei, baseline := range []bool{true, false} {
			name := "baseline-allgather"
			if !baseline {
				name = "unique+seed+fp16"
			}
			run, err := runWeakStep(w, g, baseline, unlimited, opts.Seed)
			if err != nil {
				return nil, err
			}
			if run.oom {
				if baseline && oomWall == 0 {
					oomWall = g
				}
				tab.AddRow(fmt.Sprint(g), name, "-", "*(OOM)", "-", "-", "-", "-", "*(OOM)", "-")
				continue
			}
			if opts.Trace != nil {
				// Each non-OOM cell becomes one aggregate trace step:
				// compute, then everything synchronization-shaped (comm +
				// update + overhead). zipflm-trace analyzes aggregate-only
				// traces via the envelope path (no per-rank attribution).
				syncSec := run.commSec + run.updateSec + run.overheadSec
				opts.Trace.Span("train", "compute", 0, time.Now(), 0, vcursor, run.computeSec)
				opts.Trace.Span("train", "sync", 0, time.Now(), 0, vcursor+run.computeSec, syncSec)
				opts.Trace.Instant("train", fmt.Sprintf("weakscale %s g=%d", name, g), 0, time.Now(), vcursor)
				vcursor += run.computeSec + syncSec
			}
			if anchorStep[ei] == 0 {
				anchorStep[ei] = run.stepSec
			}
			lastRunning[ei] = run
			lastRunningG[ei] = g
			tab.AddRow(
				fmt.Sprint(g), name,
				fmt.Sprint(run.ugIn),
				metrics.HumanBytes(run.sparseWire),
				fmt.Sprintf("%.1f", run.commSec*1e3),
				fmt.Sprintf("%.1f", run.computeSec*1e3),
				fmt.Sprintf("%.1f", run.updateSec*1e3),
				fmt.Sprintf("%.3f", run.stepSec),
				fmt.Sprintf("%.1f", stepsPerEpoch*run.stepSec/3600),
				fmt.Sprintf("%.2fx", run.stepSec/anchorStep[ei]),
			)
		}
	}

	// Anchor check: the predicted epoch hours at the paper's 8-GPU word-LM
	// configuration must sit on the Table III calibration.
	if !opts.Quick && anchorStep[1] > 0 {
		hours := stepsPerEpoch * anchorStep[1] / 3600
		notes = append(notes, fmt.Sprintf(
			"anchor: predicted %d-GPU epoch = %.1f h online (Table III calibration: 14.6 h with our technique)",
			anchor, hours))
		if hours < 14.6*0.85 || hours > 14.6*1.15 {
			notes = append(notes, fmt.Sprintf(
				"MISMATCH: online 8-GPU prediction %.1f h off the 14.6 h calibration", hours))
		}
	}
	if oomWall > 0 {
		notes = append(notes, fmt.Sprintf(
			"baseline hits the %s device wall at %d GPUs (paper: \"*\" beyond 24), while the unique exchange runs the whole sweep",
			metrics.HumanBytes(hw.MemBytes), oomWall))
	}
	if lastRunningG[1] > anchor && anchorStep[1] > 0 {
		notes = append(notes, fmt.Sprintf(
			"unique exchange stays near-flat: %d→%d GPUs grows predicted step time %.2fx (ideal weak scaling = 1.0x)",
			anchor, lastRunningG[1], lastRunning[1].stepSec/anchorStep[1]))
	}
	if lastRunningG[0] > anchor && anchorStep[0] > 0 {
		notes = append(notes, fmt.Sprintf(
			"baseline grows %.2fx over %d→%d GPUs before the wall (update serialization + Θ(G·K·D) gathers)",
			lastRunning[0].stepSec/anchorStep[0], anchor, lastRunningG[0]))
	}

	// Determinism: the virtual clock must be schedule-independent — rerun
	// the anchor configuration and demand bit-identical predicted time.
	again, err := runWeakStep(w, anchor, false, unlimited, opts.Seed)
	if err != nil {
		return nil, err
	}
	if again.stepSec == anchorStep[1] {
		notes = append(notes, "deterministic: re-running the anchor configuration reproduces predicted step time bit-identically")
	} else {
		notes = append(notes, fmt.Sprintf(
			"WARNING: predicted time not deterministic (%.9f vs %.9f)", again.stepSec, anchorStep[1]))
	}
	return &Report{Tables: []*metrics.Table{tab}, Notes: notes}, nil
}
