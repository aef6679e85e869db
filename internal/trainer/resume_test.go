package trainer

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"zipflm/internal/ckpt"
	"zipflm/internal/core"
	"zipflm/internal/half"
	"zipflm/internal/israce"
	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/sampling"
)

// TestResumeFromCheckedInCheckpoint: testdata/resume-v4.ckpt is the
// checkpoint a run wrote at step 7 in the first build with format 4 — 2
// ranks, LSTM with sampled softmax, dropout and carried state, Adam, the
// FP16 wire — so it holds Adam's moment slabs, carried H and C, and per-rank
// RNG streams. It decodes to exactly the state the current build captures
// at that step, and resuming from it and taking 7 more steps is
// bit-identical to 14 uninterrupted ones.
func TestResumeFromCheckedInCheckpoint(t *testing.T) {
	train, valid := smallData(60, 800, 5)
	cfg := smallConfig(2, core.UniqueExchange{})
	cfg.Model.Sampled = 10
	cfg.Model.Dropout = 0.25
	cfg.Model.Stateful = true
	cfg.SeedStrategy = sampling.ZipfFreq
	cfg.Wire = half.NewScaler(512)
	cfg.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }

	raw, err := os.ReadFile(filepath.Join("testdata", "resume-v4.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Steps(7); err != nil {
		t.Fatal(err)
	}
	now, err := full.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	old, err := ckpt.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old, now) {
		t.Errorf("the checked-in checkpoint decodes to\n %+v\nthis build captures\n %+v", old, now)
	}
	if err := full.Steps(7); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "step-000000000007.ckpt"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(cfg, dir, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Step() != 7 {
		t.Fatalf("resumed at step %d, want 7", resumed.Step())
	}
	if err := resumed.Steps(7); err != nil {
		t.Fatal(err)
	}
	if modelDigest(full.Model(0)) != modelDigest(resumed.Model(0)) {
		t.Fatal("the weights resumed from the checked-in checkpoint differ from the uninterrupted run's")
	}
	if lf, lr := full.Validate(), resumed.Validate(); lf != lr {
		t.Fatalf("validation loss differs: uninterrupted %v vs resumed %v", lf, lr)
	}
}

// TestResumeRefusesPreV4Checkpoints: a directory whose newest checkpoint
// claims format 3 — Adam's moments per tensor in name order, or an SGD run's
// frame with none — does not resume. The error names the version, and the
// file is left as it was.
func TestResumeRefusesPreV4Checkpoints(t *testing.T) {
	train, valid := smallData(60, 800, 4)
	for _, c := range []struct {
		name string
		adam bool
	}{{"adam-v3", true}, {"sgd-v3", false}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := smallConfig(2, core.UniqueExchange{})
			if c.adam {
				cfg.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }
			}
			cfg.CheckpointEvery = 5
			cfg.CheckpointDir = t.TempDir()
			tr, err := New(cfg, train, valid)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Steps(5); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(cfg.CheckpointDir, fmt.Sprintf("step-%012d.ckpt", 5))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// The frame's version sits after the 8-byte magic; the CRC-32C
			// of everything before it closes the file.
			body := raw[:len(raw)-4]
			binary.LittleEndian.PutUint32(body[8:12], 3)
			raw = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Resume(cfg, cfg.CheckpointDir, train, valid); err == nil || !strings.Contains(err.Error(), "version 3") {
				t.Fatalf("Resume: %v, want an error naming version 3", err)
			}
			if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, raw) {
				t.Fatalf("the refused checkpoint changed (read error %v)", err)
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

// TestRestoreRejectsWithoutWriting: RestoreState checks every section of a
// state before it installs any. Each row hands a trainer a state that is
// wrong in one section; the restore must fail, and the trainer's next two
// steps must be bit-identical to those of a twin that was never asked.
func TestRestoreRejectsWithoutWriting(t *testing.T) {
	train, valid := smallData(60, 1600, 13)
	base := smallConfig(2, core.UniqueExchange{})
	base.Model.Sampled = 10
	base.Model.Stateful = true
	base.Model.Dropout = 0.25
	base.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }
	first := len(model.NewLM(base.Model).DenseParams()[0].Value) // the first dense tensor's moments

	for _, row := range []struct {
		name  string
		spoil func(*ckpt.State)
	}{
		{"rank count", func(st *ckpt.State) { st.Ranks = 3 }},
		{"rng streams for another rank count", func(st *ckpt.State) { st.RNG = append(st.RNG, st.RNG[0]) }},
		{"model config", func(st *ckpt.State) {
			mc := base.Model
			mc.Hidden += 2
			st.ModelBytes, _ = model.NewLM(mc).Marshal()
		}},
		{"optimizer kind", func(st *ckpt.State) { st.Opt = optim.State{} }},
		{"optimizer moment slabs one short", func(st *ckpt.State) {
			st.Opt.M, st.Opt.V = st.Opt.M[:len(st.Opt.M)-1], st.Opt.V[:len(st.Opt.V)-1]
		}},
		{"optimizer moment slabs one long", func(st *ckpt.State) {
			st.Opt.M, st.Opt.V = append(st.Opt.M, 0), append(st.Opt.V, 0)
		}},
		{"first and second moment slabs of different lengths", func(st *ckpt.State) {
			st.Opt.V = st.Opt.V[:len(st.Opt.V)-1]
		}},
		{"optimizer moments of one tensor missing", func(st *ckpt.State) {
			st.Opt.M, st.Opt.V = st.Opt.M[first:], st.Opt.V[first:]
		}},
		{"optimizer moments of an extra tensor", func(st *ckpt.State) {
			st.Opt.M, st.Opt.V = append(st.Opt.M, st.Opt.M[:first]...), append(st.Opt.V, st.Opt.V[:first]...)
		}},
		{"optimizer moments missing after steps", func(st *ckpt.State) { st.Opt.M, st.Opt.V = nil, nil }},
		{"carried state of the last rank", func(st *ckpt.State) {
			last := &st.RNN[len(st.RNN)-1]
			last.H = last.H[:len(last.H)-1]
		}},
		{"carried state of fewer lanes than BatchPerRank", func(st *ckpt.State) {
			last := &st.RNN[len(st.RNN)-1]
			n := (last.Rows - 1) * last.Cols
			last.H, last.C, last.Rows = last.H[:n], last.C[:n], last.Rows-1
		}},
		{"carried LSTM state without its cell state", func(st *ckpt.State) { st.RNN[len(st.RNN)-1].C = nil }},
	} {
		t.Run(row.name, func(t *testing.T) {
			src, err := New(base, train, valid)
			if err != nil {
				t.Fatal(err)
			}
			if err := src.Steps(3); err != nil {
				t.Fatal(err)
			}
			st, err := src.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			row.spoil(st)
			tr, err := New(base, train, valid)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := New(base, train, valid)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Steps(1); err != nil {
				t.Fatal(err)
			}
			if err := twin.Steps(1); err != nil {
				t.Fatal(err)
			}
			if err := tr.RestoreState(st); err == nil {
				t.Fatal("RestoreState accepted the state")
			} else {
				t.Log(err)
			}
			if err := tr.Steps(2); err != nil {
				t.Fatal(err)
			}
			if err := twin.Steps(2); err != nil {
				t.Fatal(err)
			}
			got, err := tr.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("a refused restore changed the trainer: step %d vs %d, weights equal %v, optimizer equal %v",
					got.Step, want.Step, bytes.Equal(got.ModelBytes, want.ModelBytes), reflect.DeepEqual(got.Opt, want.Opt))
			}
			if err := tr.ReplicasInSync(); err != nil {
				t.Fatal(err)
			}
		})
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
