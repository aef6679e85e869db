package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
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

// TestMissingBaselineMetricFails: a baseline metric the run does not hold —
// its benchmark renamed, deleted or failing before it printed a result —
// fails the gate, even when nothing else is left to compare.
func TestMissingBaselineMetricFails(t *testing.T) {
	dir := t.TempDir()
	buf, _ := json.Marshal(&Baseline{Metrics: map[string]Metric{
		"BenchmarkX ns/op": {Value: 1000, Unit: "ns/op"},
		"BenchmarkY ns/op": {Value: 1000, Unit: "ns/op"},
	}})
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(base, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, run string }{
		{"renamed", "BenchmarkZ-2 100 1000 ns/op\n"},
		{"partial", "BenchmarkX-2 100 1000 ns/op\n"},
		// A benchmark that panics leaves a FAIL block where its result
		// line would be; the -diff input is whatever go test printed.
		{"panicked", "BenchmarkX-2 100 1000 ns/op\n--- FAIL: BenchmarkY-2\npanic: boom\nFAIL\tzipflm/x\t0.1s\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := filepath.Join(dir, c.name+".txt")
			if err := os.WriteFile(src, []byte(c.run), 0o644); err != nil {
				t.Fatal(err)
			}
			var out, errb bytes.Buffer
			code := run([]string{"-diff", base, "-threshold", "1.0", src}, &out, &errb)
			if code != 2 || !strings.Contains(out.String(), "missing") || !strings.Contains(out.String(), "MISSING") {
				t.Errorf("-diff exit %d, want 2 naming the missing metric:\n%s", code, out.String())
			}
		})
	}
}

// TestNonFiniteCurrentRegresses: a run that reports NaN or ±Inf — a broken
// benchmark, not a measurement — regresses against a finite baseline in
// either direction and with an unknown unit, exits 2 from -diff, and
// -baseline refuses to record it.
func TestNonFiniteCurrentRegresses(t *testing.T) {
	for _, tc := range []struct{ unit, value string }{
		{"ns/op", "NaN"},
		{"ns/op", "-Inf"},
		{"tok/s", "NaN"},
		{"tok/s", "+Inf"},
		{"nats", "NaN"},
	} {
		t.Run(strings.ReplaceAll(tc.unit, "/", "-")+"="+tc.value, func(t *testing.T) {
			dir := t.TempDir()
			buf, _ := json.Marshal(&Baseline{Metrics: map[string]Metric{
				"BenchmarkX " + tc.unit: {Value: 1000, Unit: tc.unit},
			}})
			base := filepath.Join(dir, "base.json")
			src := filepath.Join(dir, "bench.txt")
			if err := os.WriteFile(base, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(src, []byte("BenchmarkX-2 100 "+tc.value+" "+tc.unit+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			var out, errb bytes.Buffer
			if code := run([]string{"-diff", base, src}, &out, &errb); code != 2 || !strings.Contains(out.String(), "REGRESSED") {
				t.Errorf("-diff exit %d, want 2 with REGRESSED:\n%s", code, out.String())
			}
			rec := filepath.Join(dir, "rec.json")
			errb.Reset()
			if code := run([]string{"-baseline", rec, src}, &out, &errb); code != 1 || !strings.Contains(errb.String(), "finite") {
				t.Errorf("-baseline exit %d, want 1 naming the non-finite metric; stderr: %s", code, errb.String())
			}
			if _, err := os.Stat(rec); err == nil {
				t.Error("-baseline wrote a file with a non-finite value")
			}
		})
	}
}

// FuzzParseBench feeds arbitrary bytes to the parser as `go test -bench`
// text (plain or test2json). Every metric it collects must carry its unit in its key and at
// least one run, and a self-diff of the result must regress exactly the
// non-finite metrics.
func FuzzParseBench(f *testing.F) {
	for _, name := range []string{"bench_base.txt", "bench_ok.txt", "bench_regressed.txt", "bench_test2json.txt"} {
		buf, err := os.ReadFile(td(name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte("BenchmarkX-2 100 NaN ns/op 3 B/op\nBenchmarkX-2 100 Inf ns/op\n"))
	// A JSON document that is not a test2json stream (a zipflm-bench
	// report) decodes with no Output and yields no metric.
	f.Add([]byte(`{"reports":[{"id":"tab","tables":[{"headers":["g","step"],"units":["","s"],"rows":[["8","1.5"],["16","NaN"]]}]}]}`))
	f.Fuzz(func(t *testing.T, buf []byte) {
		c := newCollection()
		if err := c.parseBenchText(buf); err != nil {
			return
		}
		for key, s := range c.samples {
			if len(s.values) == 0 || !strings.HasSuffix(key, " "+s.unit) {
				t.Fatalf("sample %q: unit %q, %d values", key, s.unit, len(s.values))
			}
		}
		cur := c.reduce()
		for _, r := range diff(&Baseline{Metrics: cur}, cur, 0.15) {
			finite := !math.IsNaN(r.cur.Value) && !math.IsInf(r.cur.Value, 0)
			if (r.verdict == vRegressed) == finite {
				t.Fatalf("self-diff of %q (%v): verdict %s", r.name, r.cur.Value, r.verdict)
			}
		}
	})
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

// TestParseTest2JSON: extraction mode reads test2json streams.
func TestParseTest2JSON(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{td("bench_test2json.txt")}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "BenchmarkBatchedDecode ns/op") {
		t.Errorf("test2json stream not parsed:\n%s", out.String())
	}
}

// TestReportInputFindsNoMetrics: zipflm-perf reads `go test -bench`
// output only. A zipflm-bench -json report is not one: it yields no
// metric, and the run fails saying so rather than writing an empty result.
func TestReportInputFindsNoMetrics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	report := `{"reports":[{"id":"serving","tables":[{"headers":["mode","throughput"],"units":["","tok/s"],"rows":[["sequential","1200"]]}]}]}` + "\n"
	if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(errb.String(), "no metrics found") {
		t.Errorf("stderr does not say no metrics were found: %s", errb.String())
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
