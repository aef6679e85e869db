package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zipflm/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

func td(name string) string { return filepath.Join("testdata", name) }

// checkGolden compares got against the named golden file, rewriting it
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := td(name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n%s", path, got)
	}
}

// TestDiffInjectedRegressionExitsNonzero is the ISSUE acceptance
// criterion: a synthetically regressed bench run against the checked-in
// baseline must exit nonzero, and the report is pinned by a golden file.
func TestDiffInjectedRegressionExitsNonzero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-diff", td("baseline.json"), td("bench_regressed.txt")}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s\nstdout:\n%s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("report missing REGRESSION banner:\n%s", out.String())
	}
	checkGolden(t, "diff_regressed.golden", out.String())
}

func TestDiffWithinThresholdExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-diff", td("baseline.json"), td("bench_ok.txt")}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout:\n%s", code, errb.String(), out.String())
	}
	if !strings.Contains(out.String(), "no regression") {
		t.Fatalf("report missing verdict:\n%s", out.String())
	}
	checkGolden(t, "diff_ok.golden", out.String())
}

// TestNoiseWidensAllowedBand: with spread recorded in both runs, a delta
// beyond -threshold but inside 2·spread must not regress.
func TestNoiseWidensAllowedBand(t *testing.T) {
	base := &Baseline{Metrics: map[string]Metric{
		"BenchmarkNoisy ns/op": {Value: 100, Unit: "ns/op", N: 3, Spread: 0.4},
	}}
	cur := map[string]Metric{
		"BenchmarkNoisy ns/op": {Value: 150, Unit: "ns/op", N: 1},
	}
	rows := diff(base, cur, 0.15)
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	// +50% exceeds the 15% threshold, but 2·0.4 = 80% allows it.
	if rows[0].verdict != vOK {
		t.Errorf("noisy metric verdict = %s, want ok (allowed %.0f%%)", rows[0].verdict, 100*rows[0].allowed)
	}
	// The same delta on a quiet metric regresses.
	base.Metrics["BenchmarkNoisy ns/op"] = Metric{Value: 100, Unit: "ns/op", N: 3, Spread: 0.01}
	if rows := diff(base, cur, 0.15); rows[0].verdict != vRegressed {
		t.Errorf("quiet metric verdict = %s, want REGRESSED", rows[0].verdict)
	}
}

// TestDirectionByUnit: tok/s regresses downward, ns/op upward, unknown
// units never gate.
func TestDirectionByUnit(t *testing.T) {
	base := &Baseline{Metrics: map[string]Metric{
		"a tok/s": {Value: 1000, Unit: "tok/s"},
		"b ns/op": {Value: 1000, Unit: "ns/op"},
		"c nats":  {Value: 1000, Unit: "nats"},
	}}
	cur := map[string]Metric{
		"a tok/s": {Value: 500, Unit: "tok/s"},
		"b ns/op": {Value: 500, Unit: "ns/op"},
		"c nats":  {Value: 500, Unit: "nats"},
	}
	verdicts := map[string]string{}
	for _, r := range diff(base, cur, 0.15) {
		verdicts[r.name] = r.verdict
	}
	if verdicts["a tok/s"] != vRegressed {
		t.Errorf("halved tok/s = %s, want REGRESSED", verdicts["a tok/s"])
	}
	if verdicts["b ns/op"] != vImproved {
		t.Errorf("halved ns/op = %s, want improved", verdicts["b ns/op"])
	}
	if verdicts["c nats"] != vInfo {
		t.Errorf("unknown unit = %s, want info", verdicts["c nats"])
	}
}

// TestBaselineRoundTrip: -baseline writes a file with host metadata that
// -diff accepts; a run against its own baseline has no regression.
func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-baseline", path, td("bench_base.txt")}, &out, &errb); code != 0 {
		t.Fatalf("baseline exit %d, stderr: %s", code, errb.String())
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b Baseline
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if b.Host == nil || b.Host.Go == "" || b.Host.GOMAXPROCS <= 0 {
		t.Errorf("baseline host metadata incomplete: %+v", b.Host)
	}
	if len(b.Metrics) != 8 {
		t.Errorf("baseline has %d metrics, want 8", len(b.Metrics))
	}
	m := b.Metrics["BenchmarkStepWorkers1 ns/op"]
	if m.Value != 51000000 || m.N != 2 || m.Spread == 0 {
		t.Errorf("aggregated metric = %+v, want mean 51e6 over 2 runs with spread", m)
	}

	out.Reset()
	if code := run([]string{"-diff", path, td("bench_base.txt")}, &out, &errb); code != 0 {
		t.Fatalf("self-diff exit %d:\n%s", code, out.String())
	}
}

// TestParseTest2JSONAndReport: extraction mode reads test2json streams
// and zipflm-bench -json reports.
func TestParseTest2JSONAndReport(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{td("bench_test2json.txt")}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "BenchmarkBatchedDecode ns/op") {
		t.Errorf("test2json stream not parsed:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{filepath.Join("..", "..", "BENCH_serving.json")}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "serving/sequential/throughput tok/s") {
		t.Errorf("zipflm-bench report not parsed:\n%s", out.String())
	}
}

// TestHostMismatchWarning: a baseline recorded on a different host shape
// notes the mismatch in the diff report.
func TestHostMismatchWarning(t *testing.T) {
	cur := telemetry.CollectBuildInfo()
	other := cur
	other.GOMAXPROCS = cur.GOMAXPROCS + 7
	b := Baseline{Host: &other, Metrics: map[string]Metric{
		"BenchmarkX ns/op": {Value: 100, Unit: "ns/op"},
	}}
	buf, _ := json.Marshal(&b)
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(src, []byte("BenchmarkX-1 10 100 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-diff", path, src}, &out, &errb); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "host differs from baseline") {
		t.Errorf("missing host-mismatch note:\n%s", out.String())
	}
}

func TestUsageAndInputErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 1 {
		t.Fatalf("no-args exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Fatalf("no usage on stderr: %s", errb.String())
	}
	errb.Reset()
	if code := run([]string{"missing.txt"}, &out, &errb); code != 1 {
		t.Fatalf("missing-file exit %d, want 1", code)
	}
	errb.Reset()
	if code := run([]string{"-baseline", "x", "-diff", "y", "in.txt"}, &out, &errb); code != 1 {
		t.Fatalf("conflicting modes exit %d, want 1", code)
	}
	errb.Reset()
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("no benchmarks here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{empty}, &out, &errb); code != 1 {
		t.Fatalf("metric-free input exit %d, want 1", code)
	}
}
