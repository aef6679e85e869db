package experiments

import (
	"fmt"

	"zipflm/internal/ckpt"
	"zipflm/internal/corpus"
	"zipflm/internal/metrics"
	"zipflm/internal/model"
	"zipflm/internal/sampling"
	"zipflm/internal/trainer"
)

func init() {
	register("faults",
		"Goodput under injected rank failures: checkpoint-interval sweep vs the Young/Daly optimum, Table II hardware model",
		runFaults)
}

// This experiment is the scenario the fault-tolerance subsystem exists
// for, and one the virtual-clock layer makes possible at all: at the
// paper's scale an epoch is 14.6 h across 8 GPUs (Table III) — failures
// are the norm, and the checkpoint interval is a real knob with a real
// optimum. A laptop-sized model trains for real over the simulated
// cluster while the virtual clock charges paper-scale compute per step;
// a seeded Poisson fault plan kills ranks in simulated time; each fault
// rolls the trainer back to its last checkpoint and replays. Sweeping
// checkpoint interval × failure rate then traces the classic goodput
// curve — checkpoint too often and the write barrier dominates, too
// rarely and lost work does — and the empirically-best interval is
// compared against the Young/Daly first-order optimum τ = √(2δM).
//
// The MTBFs are accelerated so several failures land inside a few-hundred
// step horizon; the Young/Daly relation is scale-free, so the
// measured-vs-predicted comparison carries to production MTBFs unchanged
// (a note prints the realistic-cluster numbers).

// faultCell is one (MTBF, interval) sweep point.
type faultCell struct {
	mtbf     float64
	interval int
	goodput  float64
	faults   int
	lost     int
	ckpts    int
	simSec   float64
}

func runFaults(opts Options) (*Report, error) {
	w := wordLM()
	hw := w.hardware()

	ranks := 8
	committed := 400
	mtbfs := []float64{5, 12, 30}
	intervals := []int{5, 10, 20, 40, 80}
	if opts.Quick {
		ranks = 4
		committed = 120
		mtbfs = []float64{3, 8}
		intervals = []int{5, 15, 45}
	}

	// Checkpoint write cost δ at paper scale: the word LM's full state
	// (dense parameters + both embeddings, FP32) over a 1 GB/s parallel
	// file system. Restart adds failure detection and respawn on top of
	// the reload.
	const ckptBW = 1e9
	stateBytes := float64(w.DenseParams+2*int64(w.Vocab)*int64(w.D)) * 4
	delta := stateBytes / ckptBW
	restart := delta + 0.5

	gen := corpus.NewGenerator(corpus.GeneratorConfig{VocabSize: 499, ZipfExponent: 1.1, Seed: opts.Seed})
	stream := gen.Stream(4000 * ranks)
	train, valid := corpus.Split(stream, 20, 100, opts.Seed)

	baseCfg := func() trainer.Config {
		return trainer.Config{
			Model:           model.Config{Vocab: 500, Dim: 16, Hidden: 24, RNN: model.KindLSTM, Sampled: 32},
			Ranks:           ranks,
			BatchPerRank:    2,
			SeqLen:          8,
			LR:              0.1,
			SeedStrategy:    sampling.ZipfFreq,
			BaseSeed:        opts.Seed,
			Hardware:        &hw,
			SimFLOPsPerStep: w.FLOPsPerStep,
			SimAchievedFrac: w.AchievedFrac,
		}
	}

	// Fault-free calibration: the ideal per-step virtual time, the
	// numerator of every goodput figure.
	cal, err := trainer.New(baseCfg(), train, valid)
	if err != nil {
		return nil, err
	}
	const calSteps = 40
	if err := cal.Steps(calSteps); err != nil {
		return nil, err
	}
	stepSec := cal.SimSeconds() / calSteps

	runCell := func(mtbf float64, interval int) (faultCell, error) {
		cfg := baseCfg()
		cfg.CheckpointEvery = interval
		cfg.SimCheckpointSeconds = delta
		cfg.SimRestartSeconds = restart
		cfg.Trace = opts.Trace
		cfg.Flight = opts.Flight
		// Horizon with slack: overheads and replays stretch the run well
		// past the ideal time; events past the actual end stay unconsumed.
		horizon := float64(committed) * stepSec * 20
		cfg.Faults = ckpt.PoissonFaultPlan(opts.Seed+uint64(1000*mtbf), ranks, mtbf, horizon)
		tr, err := trainer.New(cfg, train, valid)
		if err != nil {
			return faultCell{}, err
		}
		if err := tr.Steps(committed); err != nil {
			return faultCell{}, err
		}
		fs := tr.FaultStats()
		c := faultCell{
			mtbf:     mtbf,
			interval: interval,
			faults:   fs.Faults,
			lost:     fs.LostSteps,
			ckpts:    fs.Checkpoints,
			simSec:   tr.SimSeconds(),
		}
		c.goodput = float64(committed) * stepSec / c.simSec
		return c, nil
	}

	tab := metrics.NewTable(
		fmt.Sprintf("Goodput under injected failures (%s, %d ranks, %d committed steps, ideal step %.3f s, checkpoint δ %.2f s, restart %.2f s):",
			hw.Name, ranks, committed, stepSec, delta, restart),
		"MTBF", "ckpt every", "YD τ", "ckpts", "faults", "lost steps", "sim time", "goodput")
	tab.SetUnits("s", "steps", "steps", "", "", "steps", "s", "ratio")

	notes := []string{
		"a real model trains over the simulated cluster; the virtual clock charges the paper word LM's 136 GFLOP/step at 40% of Titan X peak, checkpoint barriers at δ, and failure recoveries at the restart cost",
		"each fault rolls every replica back to the last checkpoint and replays — the trainer tests prove the replayed trajectory is bit-identical, so only wall-clock (goodput) is at stake",
		"MTBFs are accelerated to fit the horizon; Young/Daly τ = √(2δM) is scale-free, so the measured-vs-predicted comparison is unchanged at production MTBFs",
	}

	var firstCell faultCell
	for _, mtbf := range mtbfs {
		ydSteps := ckpt.YoungDaly(delta, mtbf) / stepSec
		best := faultCell{}
		for _, interval := range intervals {
			c, err := runCell(mtbf, interval)
			if err != nil {
				return nil, err
			}
			if firstCell.simSec == 0 {
				firstCell = c
			}
			if c.goodput > best.goodput {
				best = c
			}
			tab.AddRow(
				fmt.Sprintf("%.1f", mtbf),
				fmt.Sprint(interval),
				fmt.Sprintf("%.0f", ydSteps),
				fmt.Sprint(c.ckpts),
				fmt.Sprint(c.faults),
				fmt.Sprint(c.lost),
				fmt.Sprintf("%.1f", c.simSec),
				fmt.Sprintf("%.1f%%", 100*c.goodput),
			)
		}
		ratio := float64(best.interval) / ydSteps
		verdict := "within the Young/Daly ballpark"
		if ratio < 0.25 || ratio > 4 {
			verdict = "OUTSIDE the Young/Daly ballpark"
		}
		notes = append(notes, fmt.Sprintf(
			"MTBF %.1f s: empirically best interval %d steps (goodput %.1f%%) vs Young/Daly τ = %.0f steps — %s",
			mtbf, best.interval, 100*best.goodput, ydSteps, verdict))
	}

	// A realistic anchor for the accelerated sweep: the same δ at a
	// production cluster MTBF.
	const prodMTBF = 86400.0 // a failure a day across the fleet
	notes = append(notes, fmt.Sprintf(
		"at a production one-failure-per-day MTBF the same δ gives τ = %.0f s ≈ every %.0f steps (%.1f min of Table II wall-clock)",
		ckpt.YoungDaly(delta, prodMTBF), ckpt.YoungDaly(delta, prodMTBF)/stepSec, ckpt.YoungDaly(delta, prodMTBF)/60))

	// Determinism: the virtual clock and the fault plan are both seeded —
	// rerunning the first cell must reproduce its goodput bit-identically.
	again, err := runCell(mtbfs[0], intervals[0])
	if err != nil {
		return nil, err
	}
	if again.simSec == firstCell.simSec && again.lost == firstCell.lost {
		notes = append(notes, "deterministic: re-running a cell reproduces simulated time and lost work bit-identically")
	} else {
		notes = append(notes, fmt.Sprintf("WARNING: fault injection not deterministic (%.9f/%d vs %.9f/%d)",
			again.simSec, again.lost, firstCell.simSec, firstCell.lost))
	}

	return &Report{Tables: []*metrics.Table{tab}, Notes: notes}, nil
}
