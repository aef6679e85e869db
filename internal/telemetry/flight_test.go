package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"
)

func TestFlightRecordAndDump(t *testing.T) {
	f := NewFlight(8)
	f.SetSink(io.Discard)
	for i := 0; i < 3; i++ {
		f.Record(slog.LevelInfo, "event", "i", i)
	}
	if f.Len() != 3 || f.Recorded() != 3 {
		t.Fatalf("len=%d recorded=%d", f.Len(), f.Recorded())
	}

	var buf bytes.Buffer
	if n := f.Dump(&buf); n != 3 {
		t.Fatalf("dumped %d lines", n)
	}
	// Every line is valid JSON with msg and the structured attr, in record
	// order.
	sc := bufio.NewScanner(&buf)
	for i := 0; sc.Scan(); i++ {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d not JSON: %v: %s", i, err, sc.Text())
		}
		if m["msg"] != "event" || m["i"] != float64(i) {
			t.Fatalf("line %d = %v", i, m)
		}
	}
}

func TestFlightRingBound(t *testing.T) {
	f := NewFlight(4)
	f.SetSink(io.Discard)
	for i := 0; i < 10; i++ {
		f.Record(slog.LevelInfo, fmt.Sprintf("e%d", i))
	}
	if f.Len() != 4 || f.Recorded() != 10 {
		t.Fatalf("len=%d recorded=%d, want 4/10", f.Len(), f.Recorded())
	}
	var buf bytes.Buffer
	f.Dump(&buf)
	out := buf.String()
	// Only the newest 4 survive, oldest-first.
	for _, gone := range []string{"e0", "e5"} {
		if strings.Contains(out, `"`+gone+`"`) {
			t.Fatalf("overwritten event %s still present:\n%s", gone, out)
		}
	}
	for _, kept := range []string{"e6", "e7", "e8", "e9"} {
		if !strings.Contains(out, `"msg":"`+kept+`"`) {
			t.Fatalf("missing %s:\n%s", kept, out)
		}
	}
	if strings.Index(out, "e6") > strings.Index(out, "e9") {
		t.Fatalf("dump not oldest-first:\n%s", out)
	}
}

func TestFlightTriggerDumpsAndRateLimits(t *testing.T) {
	f := NewFlight(8)
	var sink bytes.Buffer
	f.SetSink(&sink)
	f.Record(slog.LevelWarn, "anomaly", "step", 7)

	f.Trigger("fault-rollback")
	out := sink.String()
	if !strings.Contains(out, "flight-recorder dump") || !strings.Contains(out, `"reason":"fault-rollback"`) {
		t.Fatalf("dump header missing:\n%s", out)
	}
	if !strings.Contains(out, `"msg":"anomaly"`) {
		t.Fatalf("ring contents missing:\n%s", out)
	}

	// A second trigger inside the rate-limit window is swallowed.
	sink.Reset()
	f.Trigger("storm")
	if sink.Len() != 0 {
		t.Fatalf("rate limit failed: sink=%q", sink.String())
	}
}

func TestFlightNilSafety(t *testing.T) {
	var f *Flight
	f.Record(slog.LevelError, "ignored")
	f.Trigger("ignored")
	f.SetSink(io.Discard)
	if f.Len() != 0 || f.Recorded() != 0 {
		t.Fatal("nil flight recorded something")
	}
	if n := f.Dump(io.Discard); n != 0 {
		t.Fatalf("nil flight dumped %d", n)
	}
	cancel := f.ArmSIGQUIT()
	cancel()
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	hostile := "he said \"hi\\there\"\nand left"
	r.Counter(Label("zipflm_hostile_total", "msg", hostile)).Add(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	want := `zipflm_hostile_total{msg="he said \"hi\\there\"\nand left"} 1`
	if !strings.Contains(text, want) {
		t.Fatalf("escaped series missing; exposition:\n%s", text)
	}
	// No raw newline may survive inside any sample line.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.Contains(line, "and left") && !strings.Contains(line, `\n`) {
			t.Fatalf("raw newline leaked into exposition: %q", line)
		}
	}
	// Clean values are returned without copying (no observable change).
	if got := Label("base", "k", "clean_value"); got != `base{k="clean_value"}` {
		t.Fatalf("clean label = %q", got)
	}
}
