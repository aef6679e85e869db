package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestTracerNil(t *testing.T) {
	var tr *Tracer
	tr.Span("cat", "name", 0, time.Now(), time.Millisecond, 0, 0)
	tr.Instant("cat", "mark", 0, time.Now(), 0)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must ignore everything")
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteChromeTrace: %v", err)
	}
}

func TestTracerChromeJSON(t *testing.T) {
	tr := NewTracer(0)
	t0 := tr.Start()
	tr.Span("train", "compute", 1, t0.Add(time.Millisecond), 2*time.Millisecond, 1.5, 0.25)
	tr.Span("train", "sync", 1, t0.Add(3*time.Millisecond), time.Millisecond, 1.75, 0.125)
	tr.Instant("train", "rollback", 1, t0.Add(4*time.Millisecond), 2.0)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			S    string  `json:"s"`
			Args struct {
				VClockS    float64 `json:"vclock_s"`
				VClockDurS float64 `json:"vclock_dur_s"`
			} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(out.TraceEvents))
	}
	e := out.TraceEvents[0]
	if e.Name != "compute" || e.Cat != "train" || e.Ph != "X" || e.Tid != 1 {
		t.Errorf("span fields wrong: %+v", e)
	}
	if e.TS != 1000 || e.Dur != 2000 { // microseconds
		t.Errorf("span timing: ts=%g dur=%g, want 1000/2000 us", e.TS, e.Dur)
	}
	if e.Args.VClockS != 1.5 || e.Args.VClockDurS != 0.25 {
		t.Errorf("virtual-clock args: %+v", e.Args)
	}
	inst := out.TraceEvents[2]
	if inst.Ph != "i" || inst.S != "t" || inst.Args.VClockS != 2.0 {
		t.Errorf("instant fields wrong: %+v", inst)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
}

func TestTracerBoundedBuffer(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Instant("c", "e", 0, tr.Start(), 0)
	}
	if tr.Len() != 4 {
		t.Fatalf("buffered %d events, want 4", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if d, ok := out["zipflmDroppedEvents"].(float64); !ok || d != 6 {
		t.Fatalf("drop count missing from export: %v", out["zipflmDroppedEvents"])
	}
}

// TestTracerWriteFile: the one trace-file writer behind every -trace flag
// leaves a complete Chrome trace at path, reports a path it cannot create,
// and on a nil tracer creates nothing.
func TestTracerWriteFile(t *testing.T) {
	tr := NewTracer(0)
	tr.Span("train", "compute", 0, tr.Start(), time.Millisecond, 0, 0.5)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	tr.WriteChromeTrace(&want)
	if !bytes.Equal(raw, want.Bytes()) {
		t.Fatalf("file holds %q, want %q", raw, want.Bytes())
	}
	if err := tr.WriteFile(filepath.Join(path, "below-a-file")); err == nil {
		t.Fatal("writing below a regular file must fail")
	}
	var off *Tracer
	unused := filepath.Join(t.TempDir(), "none.json")
	if err := off.WriteFile(unused); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(unused); !os.IsNotExist(err) {
		t.Fatalf("nil tracer created %s", unused)
	}
}
