package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zipflm/internal/telemetry"
)

// TestOncePollsLiveEndpoint runs a full -once cycle against a live
// telemetry.Handler: two polls of the text exposition, one rendered frame,
// exit 0 — exactly what the CI dashboard smoke runs.
func TestOncePollsLiveEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("zipflm_serve_tokens_total").Add(5000)
	reg.Gauge("zipflm_serve_queue_depth").SetInt(3)
	reg.Duration("zipflm_serve_latency_seconds").Record(int64(12e6))
	srv := httptest.NewServer(telemetry.Handler(reg))
	defer srv.Close()

	var out, errb bytes.Buffer
	code := run([]string{"-addr", srv.URL, "-interval", "10ms", "-once"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	frame := out.String()
	if strings.Contains(frame, "\x1b") {
		t.Error("-once frame must be plain text")
	}
	if !strings.Contains(frame, "zipflm-top") || !strings.Contains(frame, "2 samples") {
		t.Errorf("frame header wrong:\n%s", frame)
	}
	if !strings.Contains(frame, "queue depth") {
		t.Errorf("frame missing gauge panel:\n%s", frame)
	}
}

// TestMalformedExpositionFails: an endpoint whose text does not parse
// fails the poll, and the error names the offending line.
func TestMalformedExpositionFails(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "zipflm_serve_queue_depth 3\nzipflm_serve_tokens_total lots\n")
	}))
	defer srv.Close()

	var out, errb bytes.Buffer
	if code := run([]string{"-addr", srv.URL, "-once"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "zipflm_serve_tokens_total lots") {
		t.Errorf("stderr does not name the bad line: %s", errb.String())
	}
}

func TestUsageAndConnectErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 1 {
		t.Fatalf("no-args exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Fatalf("no usage on stderr: %s", errb.String())
	}
	errb.Reset()
	if code := run([]string{"-addr", "127.0.0.1:1", "-once"}, &out, &errb); code != 1 {
		t.Fatalf("unreachable-endpoint exit %d, want 1", code)
	}
}
