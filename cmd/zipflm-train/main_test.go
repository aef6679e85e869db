package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
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
// -scale that is not a positive finite float32 under -fp16, or an -rnn,
// -exchange or -level outside its accepted values — is a usage error: one
// line on stderr naming the flag, and exit status 2, before any corpus is
// read — not half.NewScaler's panic trace, nor a run of some other model or
// exchange. -overlap rides along: were the flag not defined, the one line
// would be the flag package's.
func TestUsageErrorsExitTwo(t *testing.T) {
	bin := buildTrain(t)
	var cases [][]string
	for _, scale := range []string{"0", "-512", "NaN", "+Inf", "1e300", "1e-300"} {
		cases = append(cases, []string{"-fp16", "-overlap", "-scale", scale})
	}
	cases = append(cases, []string{"-rnn", "gru"}, []string{"-exchange", "hier"}, []string{"-level", "byte"})
	for _, args := range cases {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, append(args, "-synthetic", "1000")...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: got %v, want exit status 2; stderr:\n%s", args, err, stderr.String())
			continue
		}
		msg := stderr.String()
		flagName := args[len(args)-2]
		if !strings.HasPrefix(msg, "zipflm-train: "+flagName+" ") || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine") {
			t.Errorf("%v: stderr is not the one-line usage error:\n%s", args, msg)
		}
	}
}

// TestOverlapResumeRoundTrip: -overlap reaches trainer.Config.Overlap (the
// trace shows all-reduces on the side lane's tracks, ranks…2·ranks−1) and an
// overlapped run is resume-exact from the command line — one epoch, then
// -resume for one more, writes byte for byte the full-state checkpoints
// (weights, Adam moments, RNG streams, carried RNN state) of two epochs run
// without stopping, on the FP16 wire whose receive side the ring fuses.
func TestOverlapResumeRoundTrip(t *testing.T) {
	bin := buildTrain(t)
	whole, split := t.TempDir(), t.TempDir()
	run := func(args ...string) {
		t.Helper()
		common := []string{"-synthetic", "30000", "-vocab", "500", "-ranks", "4", "-rnn", "rhn", "-adam", "-lr", "0.002",
			"-fp16", "-overlap", "-stateful", "-dropout", "0.2", "-ckpt-every", "20", "-ckpt-keep", "100"}
		if out, err := exec.Command(bin, append(common, args...)...).CombinedOutput(); err != nil {
			t.Fatalf("zipflm-train %v: %v\n%s", args, err, out)
		}
	}
	tracePath := filepath.Join(whole, "trace.json")
	run("-epochs", "2", "-ckpt-dir", whole, "-trace", tracePath)
	var trace struct {
		TraceEvents []struct {
			Name string
			Tid  int
		}
	}
	if raw, err := os.ReadFile(tracePath); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	onSideLane := 0
	for _, ev := range trace.TraceEvents {
		if ev.Name == "allreduce" && ev.Tid >= 4 {
			onSideLane++
		}
	}
	if onSideLane == 0 {
		t.Error("-overlap: no all-reduce ran on the side lane")
	}
	run("-epochs", "1", "-ckpt-dir", split)
	atStop, _ := filepath.Glob(filepath.Join(split, "step-*.ckpt"))
	run("-epochs", "1", "-ckpt-dir", split, "-resume", split)

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
