package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadScaleExitsTwo: a -scale that is not a positive finite float32 under
// -fp16 is a usage error — one line on stderr and exit status 2, before any
// corpus is read — not half.NewScaler's panic trace.
func TestBadScaleExitsTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "zipflm-train")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, scale := range []string{"0", "-512", "NaN", "+Inf", "1e300", "1e-300"} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-fp16", "-scale", scale, "-synthetic", "1000")
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("-scale %s: got %v, want exit status 2; stderr:\n%s", scale, err, stderr.String())
			continue
		}
		msg := stderr.String()
		if !strings.HasPrefix(msg, "zipflm-train: -scale ") || strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine") {
			t.Errorf("-scale %s: stderr is not the one-line usage error:\n%s", scale, msg)
		}
	}
}
