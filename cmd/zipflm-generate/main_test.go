package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"zipflm/internal/ckpt"
	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/model"
	"zipflm/internal/rng"
	"zipflm/internal/sampling"
	"zipflm/internal/trainer"
)

// buildGenerate compiles the command into a temporary directory.
func buildGenerate(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "zipflm-generate")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// saveModel writes m to dir/name as a checkpoint and returns the path.
func saveModel(t *testing.T, dir, name string, m *model.LM) string {
	t.Helper()
	mb, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := ckpt.WriteFile(path, &ckpt.State{Ranks: 1, ModelBytes: mb}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOutputMatchesGenerateOpts: plain or on int8 weights, the command
// prints the tokens sequential model.GenerateOpts draws on the same
// checkpoint (quantized where asked), greedy and sampled, and nothing on
// stderr.
func TestOutputMatchesGenerateOpts(t *testing.T) {
	bin := buildGenerate(t)
	dir := t.TempDir()
	target := model.NewLM(model.Config{Vocab: 60, Dim: 16, Hidden: 24, RNN: model.KindLSTM, Seed: 3})
	targetPath := saveModel(t, dir, "target.ckpt", target)
	prompt, n, seed := []int{3, 1, 4, 1}, 20, uint64(7)

	for _, quantized := range []bool{false, true} {
		ref, weights := target, "fp32"
		if quantized {
			ref, weights = target.Quantize(), "int8"
		}
		for _, opts := range []sampling.DecodeOpts{{}, {Temperature: 0.8, TopK: 8}} {
			name := fmt.Sprintf("%s/T%g_topk%d", weights, opts.Temperature, opts.TopK)
			t.Run(name, func(t *testing.T) {
				args := []string{"-model", targetPath, "-prompt-ids", "3,1,4,1", "-n", strconv.Itoa(n),
					"-seed", strconv.FormatUint(seed, 10), "-temperature", strconv.FormatFloat(opts.Temperature, 'g', -1, 64),
					"-topk", strconv.Itoa(opts.TopK)}
				if quantized {
					args = append(args, "-quantized")
				}
				var stdout, stderr bytes.Buffer
				cmd := exec.Command(bin, args...)
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v: %v\n%s", args, err, stderr.String())
				}
				want := ref.GenerateOpts(prompt, n, opts, rng.New(seed))
				strs := make([]string, len(want))
				for i, id := range want {
					strs[i] = strconv.Itoa(id)
				}
				if got := stdout.String(); got != strings.Join(strs, ",")+"\n" {
					t.Errorf("%v: printed %q, sequential GenerateOpts draws %v", args, got, want)
				}
				if msg := stderr.String(); msg != "" {
					t.Errorf("%v: stderr:\n%s", args, msg)
				}
			})
		}
	}
}

// TestRefusesNonFiniteWeights: a checkpoint with one NaN weight — what a
// diverged run's -save writes — is refused: exit status 1, the tensor named
// on stderr, and nothing on stdout, where it would print a token stream.
func TestRefusesNonFiniteWeights(t *testing.T) {
	bin := buildGenerate(t)
	m := model.NewLM(model.Config{Vocab: 60, Dim: 16, Hidden: 24, RNN: model.KindLSTM, Seed: 3})
	w := m.Weights()
	bad := w[len(w)-1]
	bad.Value[0] = float32(math.NaN())
	path := saveModel(t, t.TempDir(), "nan.ckpt", m)

	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-model", path, "-prompt-ids", "3,1,4", "-n", "8")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), fmt.Sprintf("%q", bad.Name)) {
		t.Errorf("got %v, want exit status 1 naming %q; stderr:\n%s", err, bad.Name, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout %q, want nothing", stdout.String())
	}
}

// TestUsageErrorsExitTwo: a token count below 1 is a usage error — one line
// on stderr naming the flag, and exit status 2, before the model file is
// opened (it does not exist here) — not a makeslice panic.
func TestUsageErrorsExitTwo(t *testing.T) {
	bin := buildGenerate(t)
	missing := filepath.Join(t.TempDir(), "missing.ckpt")
	for _, args := range [][]string{{"-n", "0"}, {"-n", "-1"}} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, append([]string{"-model", missing}, args...)...)
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%v: got %v, want exit status 2; stderr:\n%s", args, err, stderr.String())
			}
			msg := stderr.String()
			if !strings.HasPrefix(msg, "zipflm-generate: "+args[0]+" ") || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine") {
				t.Errorf("%v: stderr is not the one-line usage error:\n%s", args, msg)
			}
		})
	}
}

// TestRemovedFlagsExitTwo: the deleted lookahead decoder's two flags are
// gone — each is the flag package's usage error, exit status 2, naming the
// flag, before the model file is opened. A script still passing one fails
// instead of generating without it.
func TestRemovedFlagsExitTwo(t *testing.T) {
	bin := buildGenerate(t)
	missing := filepath.Join(t.TempDir(), "missing.ckpt")
	for _, args := range [][]string{{"-draft", "x"}, {"-draft-k", "4"}} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-model", missing}, args...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: got %v, want exit status 2 naming the flag; stderr:\n%s", args, err, stderr.String())
		}
	}
}

// TestRefusesDamagedAndBareWeightFiles: the command reads what zipflm-train
// -save writes (a trainer's captured state through ckpt.WriteFile), and it
// refuses, exiting 1 with the path in its error, the same file with one
// weight byte flipped and the model's bytes written on their own — the old
// -save format, which carries no checksum to catch the flip.
func TestRefusesDamagedAndBareWeightFiles(t *testing.T) {
	bin := buildGenerate(t)
	dir := t.TempDir()
	gen := corpus.NewMarkovGenerator(corpus.MarkovConfig{VocabSize: 49, Branching: 6, ZipfExponent: 1.1, Seed: 3})
	train, valid := corpus.Split(gen.Stream(4000), 10, 50, 3)
	tr, err := trainer.New(trainer.Config{
		Model:        model.Config{Vocab: 50, Dim: 8, Hidden: 12, RNN: model.KindLSTM, Seed: 5},
		Ranks:        2,
		BatchPerRank: 2,
		SeqLen:       6,
		LR:           0.3,
		Exchange:     core.UniqueExchange{},
		SeedStrategy: sampling.AllDifferent,
		BaseSeed:     7,
	}, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Steps(2); err != nil {
		t.Fatal(err)
	}
	st, err := tr.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(dir, "model.ckpt")
	if err := ckpt.WriteFile(saved, st); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	weights := bytes.Index(raw, st.ModelBytes)
	if weights < 0 {
		t.Fatal("the checkpoint does not hold the model's bytes")
	}
	flipped := slices.Clone(raw)
	flipped[weights+len(st.ModelBytes)-100] ^= 0x01 // inside the dense slab
	bare := st.ModelBytes
	if _, err := model.Unmarshal(flipped[weights : weights+len(bare)]); err != nil {
		t.Fatalf("the flip must leave a model file that decodes on its own: %v", err)
	}

	run := func(path string) (string, error) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-model", path, "-prompt-ids", "3,1,4", "-n", "8")
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		return stdout.String() + stderr.String(), err
	}
	if out, err := run(saved); err != nil {
		t.Fatalf("the -save file: %v\n%s", err, out)
	}
	for name, content := range map[string][]byte{"flipped.ckpt": flipped, "bare.ckpt": bare} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := run(path)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(out, path) {
			t.Errorf("%s: got %v, want exit status 1 naming %s; output:\n%s", name, err, path, out)
		}
	}
}
