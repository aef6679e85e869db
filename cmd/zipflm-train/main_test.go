package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// buildTrain compiles the command into a temporary directory.
func buildTrain(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "zipflm-train")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestUsageErrorsExitTwo: a flag value the command cannot run with — a
// -scale that is not a positive finite float32 under -fp16, an -rnn,
// -exchange, -level or -seeding outside its accepted values, or -ckpt-every
// without -ckpt-dir — is a usage
// error: one line on stderr naming one of the flags given, and exit status
// 2, before any corpus is read (nothing on stdout) — not half.NewScaler's
// panic trace, nor a run of some other model or exchange. -overlap rides
// along: were the flag not defined, the one line would be the flag
// package's. The observer flags internal/telemetry replaced (-dashboard,
// -profile-dir, -profile-interval), the gradient-compression flags (-compress
// and its -compress-… options) and the metrics-history ring's flags
// (-history, -history-interval) are the flag package's own usage errors,
// status 2.
func TestUsageErrorsExitTwo(t *testing.T) {
	bin := buildTrain(t)
	var cases [][]string
	for _, scale := range []string{"0", "-512", "NaN", "+Inf", "1e300", "1e-300"} {
		cases = append(cases, []string{"-fp16", "-overlap", "-scale", scale})
	}
	cases = append(cases, []string{"-rnn", "gru"}, []string{"-exchange", "hier"}, []string{"-level", "byte"},
		[]string{"-seeding", "bogus"}, []string{"-ckpt-every", "5"})
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append(args, "-synthetic", "1000")...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: got %v, want exit status 2; stderr:\n%s", args, err, stderr.String())
			continue
		}
		msg := stderr.String()
		named, _, _ := strings.Cut(strings.TrimPrefix(msg, "zipflm-train: "), " ")
		if !strings.HasPrefix(msg, "zipflm-train: -") || !slices.Contains(args, named) ||
			strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine") || stdout.Len() != 0 {
			t.Errorf("%v: not the one-line usage error before any output:\nstdout:\n%s\nstderr:\n%s", args, stdout.String(), msg)
		}
	}
	for _, args := range [][]string{
		{"-dashboard"}, {"-profile-dir", t.TempDir()}, {"-profile-interval", "1s"}, {"-history", "history.json"},
		{"-history", "8"}, {"-history-interval", "1s"},
		{"-compress", "topk"}, {"-compress-ratio", "0.01"}, {"-compress-momentum", "0.9"}, {"-compress-zipf"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, append(args, "-synthetic", "1000")...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), args[0]) || stdout.Len() != 0 {
			t.Errorf("%v: got %v, want exit status 2 naming the flag before any output; stderr:\n%s", args, err, stderr.String())
		}
	}
}

// TestOverlapResumeRoundTrip: -overlap reaches trainer.Config.Overlap (it
// reduces a dense layer per call, so its trace shows fewer all-reduces than
// the same epoch run without it) and an overlapped run is resume-exact from
// the command line — one epoch, then -resume for one more, writes byte for
// byte the full-state checkpoints (weights, Adam moments, RNG streams,
// carried RNN state) of two epochs run without stopping, on the FP16 wire
// whose receive side the ring fuses.
func TestOverlapResumeRoundTrip(t *testing.T) {
	bin := buildTrain(t)
	whole, split := t.TempDir(), t.TempDir()
	run := func(args ...string) {
		t.Helper()
		common := []string{"-synthetic", "30000", "-vocab", "500", "-ranks", "4", "-rnn", "rhn", "-adam", "-lr", "0.002",
			"-fp16", "-stateful", "-dropout", "0.2", "-ckpt-every", "20", "-ckpt-keep", "100"}
		if out, err := exec.Command(bin, append(common, args...)...).CombinedOutput(); err != nil {
			t.Fatalf("zipflm-train %v: %v\n%s", args, err, out)
		}
	}
	// allReduces counts the all-reduce spans of a trace file.
	allReduces := func(path string) int {
		t.Helper()
		var trace struct {
			TraceEvents []struct{ Name string }
		}
		if raw, err := os.ReadFile(path); err != nil {
			t.Fatal(err)
		} else if err := json.Unmarshal(raw, &trace); err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, ev := range trace.TraceEvents {
			if ev.Name == "allreduce" {
				n++
			}
		}
		return n
	}
	traces := t.TempDir()
	overlapTrace, syncTrace := filepath.Join(traces, "overlap.json"), filepath.Join(traces, "sync.json")
	run("-overlap", "-epochs", "2", "-ckpt-dir", whole)
	run("-overlap", "-epochs", "1", "-ckpt-dir", split, "-trace", overlapTrace)
	run("-epochs", "1", "-ckpt-dir", t.TempDir(), "-trace", syncTrace)
	if ov, sync := allReduces(overlapTrace), allReduces(syncTrace); ov == 0 || ov >= sync {
		t.Errorf("-overlap: %d all-reduce spans in an epoch, %d without it: want fewer, and some", ov, sync)
	}
	atStop, _ := filepath.Glob(filepath.Join(split, "step-*.ckpt"))
	run("-overlap", "-epochs", "1", "-ckpt-dir", split, "-resume", split)

	files, _ := filepath.Glob(filepath.Join(whole, "step-*.ckpt"))
	if len(atStop) == 0 || len(files) <= len(atStop) {
		t.Fatalf("%d checkpoints before the stop, %d in the uninterrupted run: nothing after the resume to compare", len(atStop), len(files))
	}
	for _, f := range files {
		want, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(split, filepath.Base(f)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between the resumed and the uninterrupted run", filepath.Base(f))
		}
	}
}
