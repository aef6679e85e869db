package trainer

import (
	"fmt"
	"testing"

	"zipflm/internal/ckpt"
	"zipflm/internal/collective"
	"zipflm/internal/compress"
	"zipflm/internal/core"
	"zipflm/internal/half"
	"zipflm/internal/optim"
	"zipflm/internal/perfmodel"
	"zipflm/internal/sampling"
)

// sumRankStats adds per-rank traffic counters across trainers — the resumed
// run's counters start at zero, so uninterrupted == first-leg + second-leg
// is the wire-byte half of the resume contract.
func addStats(a, b collective.Stats) collective.Stats {
	a.Add(b)
	return a
}

// TestResumeBitIdentical is the tentpole's hard correctness contract:
// train k steps → checkpoint → resume in a fresh trainer → k more steps
// must be bit-identical to an uninterrupted 2k-step run — replicas, every
// rank's wire-byte counters, and validation loss — across the full
// {SGD, Adam} × {baseline, unique, hierarchical} × {FP32, FP16} ×
// {sync, overlap} matrix, plus overlap × {compress, hardware, both}.
func TestResumeBitIdentical(t *testing.T) {
	// Small stream so the 2k steps cross an epoch boundary: the LR-decay
	// position (lr, nextDecay) then has to survive the checkpoint too.
	train, valid := smallData(60, 800, 9)
	const leg = 10

	for _, opt := range []string{"sgd", "adam"} {
		for _, eng := range []string{"baseline", "unique", "hierarchical"} {
			for _, fp16 := range []bool{false, true} {
				for _, overlap := range []bool{false, true} {
					name := fmt.Sprintf("%s-%s-fp32", opt, eng)
					if fp16 {
						name = fmt.Sprintf("%s-%s-fp16", opt, eng)
					}
					if overlap {
						name += "-overlap"
					} else {
						name += "-sync"
					}
					t.Run(name, func(t *testing.T) {
						cfg := smallConfig(4, nil)
						cfg.Model.Sampled = 12
						cfg.LRDecay = 0.9
						cfg.SeedStrategy = sampling.ZipfFreq
						cfg.Overlap = overlap
						switch eng {
						case "baseline":
							cfg.Exchange = core.BaselineAllGather{}
						case "unique":
							cfg.Exchange = core.UniqueExchange{}
						case "hierarchical":
							cfg.Exchange = core.HierarchicalExchange{Hier: collective.NewHierarchy(4, 2)}
						}
						if fp16 {
							cfg.Wire = half.NewScaler(512)
						}
						if opt == "adam" {
							cfg.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }
						}
						assertResumeBitIdentical(t, cfg, train, valid, leg)
					})
				}
			}
		}
		// The cells New used to reject: overlap with compression (whose
		// per-rank residuals ride the checkpoint), with the virtual clock
		// (whose lane clocks do not — they rejoin the device clocks every
		// step), and with both.
		for _, cell := range []string{"topk", "hardware", "topk-hardware"} {
			t.Run(fmt.Sprintf("%s-unique-fp32-overlap-%s", opt, cell), func(t *testing.T) {
				cfg := smallConfig(4, core.UniqueExchange{})
				cfg.Model.Sampled = 12
				cfg.LRDecay = 0.9
				cfg.SeedStrategy = sampling.ZipfFreq
				cfg.Overlap = true
				if cell != "hardware" {
					cfg.Compress = &compress.Config{Method: compress.MethodTopK, Ratio: 0.05, Momentum: 0.9, MinElems: 1}
				}
				if cell != "topk" {
					hw := perfmodel.TitanX()
					cfg.Hardware = &hw
					cfg.SimFLOPsPerStep = 1e9
					cfg.SimAchievedFrac = 0.4
				}
				if opt == "adam" {
					cfg.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }
				}
				assertResumeBitIdentical(t, cfg, train, valid, leg)
			})
		}
	}
}

// assertResumeBitIdentical runs the uninterrupted twin and the
// checkpoint/resume pair and compares them exactly.
func assertResumeBitIdentical(t *testing.T, cfg Config, train, valid []int, leg int) {
	t.Helper()

	full, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Steps(2 * leg); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfgCk := cfg
	cfgCk.CheckpointEvery = leg
	cfgCk.CheckpointDir = dir
	first, err := New(cfgCk, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Steps(leg); err != nil {
		t.Fatal(err)
	}
	if first.FaultStats().Checkpoints != 1 {
		t.Fatalf("expected 1 checkpoint after %d steps, got %d", leg, first.FaultStats().Checkpoints)
	}

	// The "crash": first is abandoned; a fresh process resumes from disk.
	resumed, err := Resume(cfgCk, dir, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Step() != leg {
		t.Fatalf("resumed at step %d, want %d", resumed.Step(), leg)
	}
	if err := resumed.Steps(leg); err != nil {
		t.Fatal(err)
	}

	if err := resumed.ReplicasInSync(); err != nil {
		t.Fatalf("resumed replicas diverged: %v", err)
	}
	requireIdenticalModels(t, "resume", full.Model(0), resumed.Model(0))
	if lf, lr := full.Validate(), resumed.Validate(); lf != lr {
		t.Fatalf("validation loss differs: uninterrupted %v vs resumed %v", lf, lr)
	}
	for r := 0; r < cfg.Ranks; r++ {
		want := full.Comm().RankStats(r)
		got := addStats(first.Comm().RankStats(r), resumed.Comm().RankStats(r))
		if want != got {
			t.Fatalf("rank %d wire stats diverge:\n uninterrupted %+v\n legs sum      %+v", r, want, got)
		}
	}
}

// TestResumeWithDropoutAndStatefulRNN covers the per-rank state the
// checkpoint carries beyond weights: the dropout RNG streams and the
// truncated-BPTT carried recurrent state must both survive the
// checkpoint/resume cycle for the trajectory to stay bit-identical.
func TestResumeWithDropoutAndStatefulRNN(t *testing.T) {
	train, valid := smallData(60, 800, 5)
	cfg := smallConfig(2, core.UniqueExchange{})
	cfg.Model.Sampled = 10
	cfg.Model.Dropout = 0.25
	cfg.Model.Stateful = true
	cfg.SeedStrategy = sampling.AllSame
	cfg.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }
	assertResumeBitIdentical(t, cfg, train, valid, 7)
}

// TestResumeRejectsMismatchedConfig: a checkpoint must refuse to restore
// into a trainer whose model or cluster shape differs.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	train, valid := smallData(60, 1200, 3)
	cfg := smallConfig(2, core.UniqueExchange{})
	cfg.CheckpointEvery = 2
	cfg.CheckpointDir = t.TempDir()
	tr, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Steps(2); err != nil {
		t.Fatal(err)
	}

	wrongRanks := cfg
	wrongRanks.Ranks = 4
	if _, err := Resume(wrongRanks, cfg.CheckpointDir, train, valid); err == nil {
		t.Fatal("resume with a different rank count must fail")
	}
	wrongModel := cfg
	wrongModel.Model.Hidden += 2
	if _, err := Resume(wrongModel, cfg.CheckpointDir, train, valid); err == nil {
		t.Fatal("resume with a different architecture must fail")
	}
	wrongOpt := cfg
	wrongOpt.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(0) }
	if _, err := Resume(wrongOpt, cfg.CheckpointDir, train, valid); err == nil {
		t.Fatal("resume swapping SGD for Adam must fail")
	}
	if _, err := Resume(cfg, t.TempDir(), train, valid); err == nil {
		t.Fatal("resume from an empty directory must fail")
	}
}

// TestFaultRollbackReplaysToBitIdentity: an injected rank failure must
// roll the run back to its last checkpoint and replay to the same final
// state a fault-free run reaches — at the cost of lost steps and recovery
// time on the virtual clock, which is exactly what the goodput experiment
// measures.
func TestFaultRollbackReplaysToBitIdentity(t *testing.T) {
	train, valid := smallData(60, 1600, 11)
	hw := perfmodel.TitanX()
	base := smallConfig(2, core.UniqueExchange{})
	base.Model.Sampled = 10
	base.SeedStrategy = sampling.ZipfFreq
	base.Hardware = &hw
	base.SimFLOPsPerStep = 1e9
	base.SimAchievedFrac = 0.4

	clean, err := New(base, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Steps(20); err != nil {
		t.Fatal(err)
	}
	cleanSim := clean.SimSeconds()

	faulty := base
	faulty.CheckpointEvery = 5
	// Costs proportionate to the ~0.7 ms simulated step so faults land
	// mid-interval rather than being leapt over by a checkpoint barrier.
	faulty.SimCheckpointSeconds = 0.0002
	faulty.SimRestartSeconds = 0.0005
	// Two failures placed inside the 20-step horizon (the clean run's
	// virtual clock tells us where steps land).
	faulty.Faults = ckpt.NewFaultPlan([]ckpt.Fault{
		{Time: cleanSim * 0.35, Rank: 1},
		{Time: cleanSim * 0.70, Rank: 0},
	})
	tr, err := New(faulty, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Steps(20); err != nil {
		t.Fatal(err)
	}

	fs := tr.FaultStats()
	if fs.Faults != 2 {
		t.Fatalf("injected %d faults, want 2", fs.Faults)
	}
	if fs.LostSteps <= 0 {
		t.Fatalf("faults mid-interval must lose steps, got %d", fs.LostSteps)
	}
	if fs.Checkpoints < 4 {
		t.Fatalf("expected ≥4 checkpoints over 20 steps at interval 5, got %d", fs.Checkpoints)
	}
	if tr.Step() != 20 {
		t.Fatalf("committed %d steps, want 20", tr.Step())
	}
	if tr.SimSeconds() <= cleanSim {
		t.Fatalf("faulty run predicted %.6fs, must exceed clean %.6fs (lost work + recovery)",
			tr.SimSeconds(), cleanSim)
	}
	if err := tr.ReplicasInSync(); err != nil {
		t.Fatal(err)
	}
	// The final state must be exactly the clean run's: rollback + replay
	// changes wall-clock, never arithmetic.
	requireIdenticalModels(t, "faulty-vs-clean", clean.Model(0), tr.Model(0))
	if lc, lf := clean.Validate(), tr.Validate(); lc != lf {
		t.Fatalf("validation loss differs after replay: %v vs %v", lc, lf)
	}

	// Determinism: the same plan replayed in a fresh trainer produces the
	// identical virtual-clock total.
	faulty.Faults.Reset()
	tr2, err := New(faulty, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.Steps(20); err != nil {
		t.Fatal(err)
	}
	if tr2.SimSeconds() != tr.SimSeconds() {
		t.Fatalf("faulty run not deterministic: %.9f vs %.9f", tr2.SimSeconds(), tr.SimSeconds())
	}
}

// TestFaultsRequireHardware: failure times live on the virtual clock.
func TestFaultsRequireHardware(t *testing.T) {
	train, valid := smallData(60, 1200, 2)
	cfg := smallConfig(2, core.UniqueExchange{})
	cfg.Faults = ckpt.NewFaultPlan([]ckpt.Fault{{Time: 1, Rank: 0}})
	if _, err := New(cfg, train, valid); err == nil {
		t.Fatal("Faults without Hardware must be rejected")
	}
}
