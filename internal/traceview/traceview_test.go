package traceview

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

func parseTestdata(t *testing.T, name string) *Trace {
	t.Helper()
	tr, err := ParseFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestAnalyzeSmallTrace checks every analyzer output against hand-computed
// values for the checked-in two-rank, two-step trace. All virtual durations
// in the testdata are binary-exact (multiples of 0.25), so the expected
// values are exact float64 comparisons, not tolerances.
func TestAnalyzeSmallTrace(t *testing.T) {
	tr := parseTestdata(t, "small.json")
	a := Analyze(tr)

	if a.Events != 15 || a.Dropped != 0 || a.Truncated {
		t.Fatalf("header mismatch: events=%d dropped=%d truncated=%v", a.Events, a.Dropped, a.Truncated)
	}
	if a.TotalCompute != 3.5 || a.TotalSync != 1.25 || a.TotalEnvelope() != 4.75 {
		t.Fatalf("totals: compute=%v sync=%v total=%v", a.TotalCompute, a.TotalSync, a.TotalEnvelope())
	}
	want := []Step{
		{Index: 0, Compute: 1.5, Sync: 0.5, Wire: 0.25, Update: 0.25},
		{Index: 1, Compute: 2, Sync: 0.75, Wire: 0.5, Update: 0.25},
	}
	if len(a.Steps) != len(want) {
		t.Fatalf("steps = %d, want %d", len(a.Steps), len(want))
	}
	for i, st := range a.Steps {
		if st != want[i] {
			t.Fatalf("step %d = %+v, want %+v", i, st, want[i])
		}
	}

	if len(a.Collectives) != 1 {
		t.Fatalf("collectives = %v", a.Collectives)
	}
	ar := a.Collectives[0]
	if ar.Name != "allreduce" || ar.Count != 2 || ar.VDur != 0.75 {
		t.Fatalf("allreduce total = %+v", ar)
	}
	if a.Instants["fault-rollback"] != 1 {
		t.Fatalf("instants = %v", a.Instants)
	}
}

// TestSummaryGolden locks the zipflm-trace report format against a golden
// file. Regenerate with: go test ./internal/traceview -run Golden -update
func TestSummaryGolden(t *testing.T) {
	tr := parseTestdata(t, "small.json")
	a := Analyze(tr)
	var buf bytes.Buffer
	WriteSummary(&buf, tr, a, SummaryOptions{})

	golden := filepath.Join("testdata", "small.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("summary drifted from golden (run with -update to accept):\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestDiffIdentical: diffing a trace against itself reports no regression
// and says so in the exact no-regression phrasing CI greps for.
func TestDiffIdentical(t *testing.T) {
	a := Analyze(parseTestdata(t, "small.json"))
	b := Analyze(parseTestdata(t, "small.json"))
	var buf bytes.Buffer
	if WriteDiff(&buf, a, b) {
		t.Fatal("identical analyses reported a regression")
	}
	if !strings.Contains(buf.String(), "identical on the virtual clock — no regression") {
		t.Fatalf("diff output missing no-regression verdict:\n%s", buf.String())
	}
}

// TestDiffRegression: a candidate with a longer critical path is flagged.
func TestDiffRegression(t *testing.T) {
	a := Analyze(parseTestdata(t, "small.json"))
	b := Analyze(parseTestdata(t, "small.json"))
	b.TotalSync += 0.5
	b.Steps[1].Sync += 0.5
	var buf bytes.Buffer
	if !WriteDiff(&buf, a, b) {
		t.Fatal("regressed candidate not flagged")
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("diff output missing REGRESSION verdict:\n%s", buf.String())
	}
}

// FuzzParse: no input — truncated, hand-edited or hostile — makes Parse,
// Analyze or WriteSummary panic; a document Parse accepts always renders.
func FuzzParse(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "small.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		WriteSummary(io.Discard, tr, Analyze(tr), SummaryOptions{MaxSteps: -1})
	})
}

// TestAnalyzeEmptyTrace: an empty trace analyzes to zeros and the summary
// renders without panicking.
func TestAnalyzeEmptyTrace(t *testing.T) {
	tr, err := Parse(strings.NewReader(`{"traceEvents":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(tr)
	if a.Events != 0 || len(a.Steps) != 0 || a.TotalEnvelope() != 0 {
		t.Fatalf("empty trace analysis = %+v", a)
	}
	var buf bytes.Buffer
	WriteSummary(&buf, tr, a, SummaryOptions{})
	if !strings.Contains(buf.String(), "0 events, 0 steps") {
		t.Fatalf("empty summary:\n%s", buf.String())
	}
}

// TestAnalyzeTruncated: a dropped-event count or unequal step streams mark
// the analysis truncated, and the split of Sync is bounded by the shorter
// of the exchange and update streams instead of reading out of range. A
// trace with no exchange or update spans at all (the weak-scaling sweep's)
// is complete.
func TestAnalyzeTruncated(t *testing.T) {
	// Step 1's update span was dropped: the streams are uneven.
	const events = `{"traceEvents":[
{"name":"compute","cat":"train","ph":"X","tid":0,"ts":0,"dur":1,"args":{"vclock_s":0,"vclock_dur_s":1}},
{"name":"exchange","cat":"train","ph":"X","tid":0,"ts":1,"dur":1,"args":{"vclock_s":1,"vclock_dur_s":0.5}},
{"name":"update","cat":"train","ph":"X","tid":0,"ts":2,"dur":1,"args":{"vclock_s":1.5,"vclock_dur_s":0.25}},
{"name":"sync","cat":"train","ph":"X","tid":0,"ts":1,"dur":2,"args":{"vclock_s":1,"vclock_dur_s":0.75}},
{"name":"compute","cat":"train","ph":"X","tid":0,"ts":4,"dur":1,"args":{"vclock_s":1.75,"vclock_dur_s":1}},
{"name":"exchange","cat":"train","ph":"X","tid":0,"ts":5,"dur":1,"args":{"vclock_s":2.75,"vclock_dur_s":0.5}},
{"name":"sync","cat":"train","ph":"X","tid":0,"ts":5,"dur":2,"args":{"vclock_s":2.75,"vclock_dur_s":0.75}}
]`
	for _, tc := range []struct {
		name, doc, flag string
	}{
		{"dropped", events + `,"zipflmDroppedEvents":1}`, "DROPPED"},
		{"uneven", events + `}`, "unequal lengths"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := Parse(strings.NewReader(tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			a := Analyze(tr)
			if !a.Truncated {
				t.Fatal("analysis not marked truncated")
			}
			// Both steps survive (totals intact) …
			if len(a.Steps) != 2 || a.TotalCompute != 2.0 || a.TotalSync != 1.5 {
				t.Fatalf("steps=%d compute=%v sync=%v", len(a.Steps), a.TotalCompute, a.TotalSync)
			}
			// … but the split stops at the complete prefix.
			if a.Steps[0].Wire != 0.5 || a.Steps[0].Update != 0.25 {
				t.Fatalf("step 0 lost its split: %+v", a.Steps[0])
			}
			if a.Steps[1].Wire != 0 || a.Steps[1].Update != 0 {
				t.Fatalf("step 1 split beyond the complete prefix: %+v", a.Steps[1])
			}
			var buf bytes.Buffer
			WriteSummary(&buf, tr, a, SummaryOptions{})
			if !strings.Contains(buf.String(), tc.flag) {
				t.Fatalf("summary does not say %q:\n%s", tc.flag, buf.String())
			}
		})
	}

	t.Run("unsplit", func(t *testing.T) {
		tr, err := Parse(strings.NewReader(`{"traceEvents":[
{"name":"compute","cat":"train","ph":"X","tid":0,"ts":0,"dur":1,"args":{"vclock_s":0,"vclock_dur_s":2}},
{"name":"sync","cat":"train","ph":"X","tid":0,"ts":1,"dur":1,"args":{"vclock_s":2,"vclock_dur_s":1}}
]}`))
		if err != nil {
			t.Fatal(err)
		}
		a := Analyze(tr)
		if a.Truncated || len(a.Steps) != 1 || a.Steps[0] != (Step{Compute: 2, Sync: 1}) {
			t.Fatalf("compute/sync-only analysis = %+v", a)
		}
	})
}
