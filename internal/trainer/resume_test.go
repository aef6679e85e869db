package trainer

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	stdlog "log"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"zipflm/internal/ckpt"
	"zipflm/internal/collective"
	"zipflm/internal/compress"
	"zipflm/internal/core"
	"zipflm/internal/half"
	"zipflm/internal/israce"
	"zipflm/internal/model"
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
// {SGD, Adam} × {baseline, unique} × {FP32, FP16} ×
// {sync, overlap} matrix, plus overlap × {compress, hardware, both}.
func TestResumeBitIdentical(t *testing.T) {
	// Small stream so the 2k steps cross an epoch boundary: the LR-decay
	// position (lr, nextDecay) then has to survive the checkpoint too.
	train, valid := smallData(60, 800, 9)
	const leg = 10

	for _, opt := range []string{"sgd", "adam"} {
		for _, eng := range []string{"baseline", "unique"} {
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

// rewriteAsFrameV2 replaces the checkpoint at path with the same state in the
// version-2 frame (a frozen copy of that writer): one gob value with every
// tensor inside and the Adam moments as float64.
func rewriteAsFrameV2(t *testing.T, path string) {
	t.Helper()
	st, err := ckpt.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	type optV2 struct {
		Kind  string
		T     int
		Names []string
		M, V  [][]float64
	}
	widen := func(xs [][]float32) (out [][]float64) {
		for _, x := range xs {
			w := make([]float64, len(x))
			for i, f := range x {
				w[i] = float64(f) * (1 + 0x1p-30) // between two float32s, as a float64 run leaves it
			}
			out = append(out, w)
		}
		return out
	}
	v2 := struct {
		Step       int
		LR         float64
		NextDecay  int
		Ranks      int
		ModelBytes []byte
		Opt        optV2
		RNG        [][4]uint64
		RNN        []model.CarriedState
		Compress   []compress.EngineState
	}{st.Step, st.LR, st.NextDecay, st.Ranks, st.ModelBytes,
		optV2{st.Opt.Kind, st.Opt.T, st.Opt.Names, widen(st.Opt.M), widen(st.Opt.V)},
		st.RNG, st.RNN, st.Compress}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v2); err != nil {
		t.Fatal(err)
	}
	out := []byte{'Z', 'L', 'M', 'C', 'K', 'P', 'T', 0}
	out = binary.LittleEndian.AppendUint32(out, 2)
	out = binary.LittleEndian.AppendUint64(out, uint64(payload.Len()))
	out = append(out, payload.Bytes()...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeFromLegacyFrameWarnsOnceAboutAdam: a directory written before
// format 3 still resumes. Under Adam its float64 moments were rounded on the
// way in, which is the one case where a resumed run is not the run that was
// interrupted, so Resume says so — one warning, and none for an SGD run or a
// current checkpoint — and training carries on to a finite loss.
func TestResumeFromLegacyFrameWarnsOnceAboutAdam(t *testing.T) {
	train, valid := smallData(60, 800, 4)
	for _, c := range []struct {
		name         string
		adam, legacy bool
		warnings     int
	}{{"adam-v2", true, true, 1}, {"adam-v3", true, false, 0}, {"sgd-v2", false, true, 0}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := smallConfig(2, core.UniqueExchange{})
			cfg.Model.Stateful = true
			cfg.Compress = &compress.Config{Method: compress.MethodTopK, Ratio: 0.05, Momentum: 0.9, MinElems: 1}
			if c.adam {
				cfg.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }
			}
			cfg.CheckpointEvery = 5
			cfg.CheckpointDir = t.TempDir()
			first, err := New(cfg, train, valid)
			if err != nil {
				t.Fatal(err)
			}
			if err := first.Steps(5); err != nil {
				t.Fatal(err)
			}
			if c.legacy {
				rewriteAsFrameV2(t, filepath.Join(cfg.CheckpointDir, fmt.Sprintf("step-%012d.ckpt", 5)))
			}

			// SetDefault also points package log at the new handler and does
			// not undo that when the old default comes back.
			var logged bytes.Buffer
			defer func(l *slog.Logger, w io.Writer, flags int) {
				slog.SetDefault(l)
				stdlog.SetOutput(w)
				stdlog.SetFlags(flags)
			}(slog.Default(), stdlog.Writer(), stdlog.Flags())
			slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
			resumed, err := Resume(cfg, cfg.CheckpointDir, train, valid)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.Count(logged.String(), "rounded to float32"); got != c.warnings || strings.Count(logged.String(), "\n") != c.warnings {
				t.Errorf("Resume logged %d rounding warnings, want %d; log:\n%s", got, c.warnings, logged.String())
			}
			if resumed.Step() != 5 {
				t.Fatalf("resumed at step %d, want 5", resumed.Step())
			}
			if err := resumed.Steps(5); err != nil {
				t.Fatal(err)
			}
			if err := resumed.ReplicasInSync(); err != nil {
				t.Fatal(err)
			}
			if loss := resumed.Validate(); math.IsNaN(loss) || math.IsInf(loss, 0) {
				t.Fatalf("validation loss after resuming: %v", loss)
			}
			if !c.adam {
				// Nothing in an SGD checkpoint was float64: the legacy frame
				// resumes to the very run that wrote it.
				if err := first.Steps(5); err != nil {
					t.Fatal(err)
				}
				requireIdenticalModels(t, "sgd resume from a version-2 frame", first.Model(0), resumed.Model(0))
			}
		})
	}
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

// TestCheckpointAllocBound pins the copies a checkpoint makes, on the two
// shapes the repository benchmark trains (word LM under SGD, char LM under
// Adam): one CaptureState + Dir.Save allocates at most twice the file it
// writes — the floor is once, the detached snapshot State.ModelBytes plus
// the moments; the gob frames stood at 8× — and Dir.Latest at most 2.5× (the
// file, plus the tensors decoded out of it).
func TestCheckpointAllocBound(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation accounting is meaningless under -race")
	}
	for _, c := range []struct {
		name  string
		model model.Config
		adam  bool
	}{
		{"train_word", model.Config{Vocab: 10000, Dim: 64, Hidden: 128, RNN: model.KindLSTM, Sampled: 128}, false},
		{"train_char_comm", model.Config{Vocab: 98, Dim: 32, Hidden: 256, RNN: model.KindRHN, RHNDepth: 3}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			train, valid := smallData(c.model.Vocab, 3000, 5)
			cfg := smallConfig(2, core.UniqueExchange{})
			cfg.Model = c.model
			if c.adam {
				cfg.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }
			}
			tr, err := New(cfg, train, valid)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Steps(1); err != nil { // Adam's moments exist from the first step
				t.Fatal(err)
			}
			dir, err := ckpt.NewDir(t.TempDir(), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			allocated := func(fn func()) float64 {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				fn()
				runtime.ReadMemStats(&m1)
				return float64(m1.TotalAlloc - m0.TotalAlloc)
			}
			var path string
			saved := allocated(func() {
				st, err := tr.CaptureState()
				if err == nil {
					path, err = dir.Save(st)
				}
				if err != nil {
					t.Fatal(err)
				}
			})
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			file := float64(fi.Size())
			if ratio := saved / file; ratio > 2 {
				t.Errorf("capture + save allocated %.2f× the %.0f-byte file, bound 2×", ratio, file)
			} else {
				t.Logf("capture + save allocated %.2f× the %.0f-byte file", ratio, file)
			}
			loaded := allocated(func() {
				if _, err := dir.Latest(); err != nil {
					t.Fatal(err)
				}
			})
			if ratio := loaded / file; ratio > 2.5 {
				t.Errorf("Latest allocated %.2f× the %.0f-byte file, bound 2.5×", ratio, file)
			} else {
				t.Logf("Latest allocated %.2f× the file", ratio)
			}
		})
	}
}
