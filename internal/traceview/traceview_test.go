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

	if a.Events != 21 || a.Dropped != 0 || a.Truncated || a.EnvelopeDerived {
		t.Fatalf("header mismatch: events=%d dropped=%d truncated=%v derived=%v",
			a.Events, a.Dropped, a.Truncated, a.EnvelopeDerived)
	}
	if len(a.Ranks) != 2 || a.Ranks[0] != 0 || a.Ranks[1] != 1 {
		t.Fatalf("ranks = %v, want [0 1]", a.Ranks)
	}
	if a.TotalCompute != 3.5 || a.TotalSync != 1.25 || a.TotalEnvelope() != 4.75 {
		t.Fatalf("totals: compute=%v sync=%v total=%v", a.TotalCompute, a.TotalSync, a.TotalEnvelope())
	}
	if len(a.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(a.Steps))
	}

	s0 := a.Steps[0]
	if s0.Compute != 1.5 || s0.Sync != 0.5 || s0.Straggler != 1 ||
		s0.Wire != 0.25 || s0.UpdateMax != 0.25 || s0.MaxWait != 0.5 || s0.Other != 0 {
		t.Fatalf("step 0 = %+v", s0)
	}
	if s0.Ranks[0].Wait != 0.5 || s0.Ranks[1].Wait != 0 {
		t.Fatalf("step 0 waits = %v / %v", s0.Ranks[0].Wait, s0.Ranks[1].Wait)
	}
	s1 := a.Steps[1]
	if s1.Compute != 2.0 || s1.Sync != 0.75 || s1.Straggler != 0 ||
		s1.Wire != 0.5 || s1.UpdateMax != 0.25 || s1.MaxWait != 1.0 || s1.Other != 0 {
		t.Fatalf("step 1 = %+v", s1)
	}

	if a.RankBusy[0] != 4.25 || a.RankBusy[1] != 3.75 {
		t.Fatalf("rank busy = %v", a.RankBusy)
	}
	if a.RankWait[0] != 0.5 || a.RankWait[1] != 1.0 {
		t.Fatalf("rank wait = %v", a.RankWait)
	}

	if len(a.Collectives) != 1 {
		t.Fatalf("collectives = %v", a.Collectives)
	}
	ar := a.Collectives[0]
	if ar.Name != "allreduce" || ar.Count != 4 || ar.VDur != 3.0 {
		t.Fatalf("allreduce total = %+v", ar)
	}
	if a.Instants["fault-rollback"] != 1 {
		t.Fatalf("instants = %v", a.Instants)
	}
	sc := a.StragglerCounts()
	if sc[0] != 1 || sc[1] != 1 {
		t.Fatalf("straggler counts = %v", sc)
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
	if a.Events != 0 || len(a.Steps) != 0 || len(a.Ranks) != 0 || a.TotalEnvelope() != 0 {
		t.Fatalf("empty trace analysis = %+v", a)
	}
	var buf bytes.Buffer
	WriteSummary(&buf, tr, a, SummaryOptions{})
	if !strings.Contains(buf.String(), "0 events, 0 steps, 0 ranks") {
		t.Fatalf("empty summary:\n%s", buf.String())
	}
}

// TestAnalyzeSingleRank: with one rank the wire floor is that rank's own
// exchange, so no step has any sync wait.
func TestAnalyzeSingleRank(t *testing.T) {
	const trace = `{"traceEvents":[
{"name":"compute","cat":"train","ph":"X","tid":0,"ts":0,"dur":10,"args":{"vclock_s":0,"vclock_dur_s":2}},
{"name":"compute","cat":"rank","ph":"X","tid":0,"ts":0,"dur":10,"args":{"vclock_s":0,"vclock_dur_s":2}},
{"name":"exchange","cat":"rank","ph":"X","tid":0,"ts":10,"dur":5,"args":{"vclock_s":2,"vclock_dur_s":0.5}},
{"name":"update","cat":"rank","ph":"X","tid":0,"ts":15,"dur":2,"args":{"vclock_s":2.5,"vclock_dur_s":0.25}},
{"name":"sync","cat":"train","ph":"X","tid":0,"ts":17,"dur":7,"args":{"vclock_s":2,"vclock_dur_s":0.75}}
]}`
	tr, err := Parse(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(tr)
	if len(a.Ranks) != 1 || len(a.Steps) != 1 {
		t.Fatalf("ranks=%v steps=%d", a.Ranks, len(a.Steps))
	}
	st := a.Steps[0]
	if st.Straggler != 0 || st.Wire != 0.5 || st.MaxWait != 0 || st.Other != 0 {
		t.Fatalf("single-rank step = %+v", st)
	}
	if a.RankWait[0] != 0 {
		t.Fatalf("single rank waited %v", a.RankWait[0])
	}
}

// TestAnalyzeTruncated: a dropped-event count or unequal span streams mark
// the analysis truncated, and attribution is bounded by the shortest
// per-rank stream instead of reading out of range.
func TestAnalyzeTruncated(t *testing.T) {
	// Rank 1's exchange/update for step 1 were dropped: streams are uneven.
	const trace = `{"traceEvents":[
{"name":"compute","cat":"train","ph":"X","tid":0,"ts":0,"dur":1,"args":{"vclock_s":0,"vclock_dur_s":1}},
{"name":"compute","cat":"rank","ph":"X","tid":0,"ts":0,"dur":1,"args":{"vclock_s":0,"vclock_dur_s":1}},
{"name":"compute","cat":"rank","ph":"X","tid":1,"ts":0,"dur":1,"args":{"vclock_s":0,"vclock_dur_s":1}},
{"name":"exchange","cat":"rank","ph":"X","tid":0,"ts":1,"dur":1,"args":{"vclock_s":1,"vclock_dur_s":0.5}},
{"name":"exchange","cat":"rank","ph":"X","tid":1,"ts":1,"dur":1,"args":{"vclock_s":1,"vclock_dur_s":0.5}},
{"name":"update","cat":"rank","ph":"X","tid":0,"ts":2,"dur":1,"args":{"vclock_s":1.5,"vclock_dur_s":0.25}},
{"name":"update","cat":"rank","ph":"X","tid":1,"ts":2,"dur":1,"args":{"vclock_s":1.5,"vclock_dur_s":0.25}},
{"name":"sync","cat":"train","ph":"X","tid":0,"ts":3,"dur":1,"args":{"vclock_s":1,"vclock_dur_s":0.75}},
{"name":"compute","cat":"train","ph":"X","tid":0,"ts":4,"dur":1,"args":{"vclock_s":1.75,"vclock_dur_s":1}},
{"name":"compute","cat":"rank","ph":"X","tid":0,"ts":4,"dur":1,"args":{"vclock_s":1.75,"vclock_dur_s":1}},
{"name":"compute","cat":"rank","ph":"X","tid":1,"ts":4,"dur":1,"args":{"vclock_s":1.75,"vclock_dur_s":1}},
{"name":"exchange","cat":"rank","ph":"X","tid":0,"ts":5,"dur":1,"args":{"vclock_s":2.75,"vclock_dur_s":0.5}},
{"name":"update","cat":"rank","ph":"X","tid":0,"ts":6,"dur":1,"args":{"vclock_s":3.25,"vclock_dur_s":0.25}},
{"name":"sync","cat":"train","ph":"X","tid":0,"ts":7,"dur":1,"args":{"vclock_s":2.75,"vclock_dur_s":0.75}}
],"zipflmDroppedEvents":2}`
	tr, err := Parse(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(tr)
	if !a.Truncated {
		t.Fatal("dropped events did not mark the analysis truncated")
	}
	if a.Dropped != 2 {
		t.Fatalf("dropped = %d", a.Dropped)
	}
	// Both aggregate steps survive (envelope totals intact) …
	if len(a.Steps) != 2 || a.TotalCompute != 2.0 || a.TotalSync != 1.5 {
		t.Fatalf("steps=%d compute=%v sync=%v", len(a.Steps), a.TotalCompute, a.TotalSync)
	}
	// … but attribution stops at the complete prefix: step 1 has no ranks.
	if a.Steps[0].Straggler < 0 {
		t.Fatal("step 0 lost its attribution")
	}
	if a.Steps[1].Straggler != -1 || a.Steps[1].Ranks != nil {
		t.Fatalf("step 1 attributed beyond the complete prefix: %+v", a.Steps[1])
	}
	var buf bytes.Buffer
	WriteSummary(&buf, tr, a, SummaryOptions{})
	if !strings.Contains(buf.String(), "DROPPED") {
		t.Fatalf("summary does not flag dropped events:\n%s", buf.String())
	}
}

// TestAnalyzeEnvelopeDerived: a trace with only aggregate trainer spans
// (the weak-scaling benchmark shape) still yields steps and totals; a trace
// with only per-rank spans derives the envelope from the rank maxima.
func TestAnalyzeEnvelopeDerived(t *testing.T) {
	// Aggregate-only (weakscale): steps exist, no rank attribution.
	const aggOnly = `{"traceEvents":[
{"name":"compute","cat":"train","ph":"X","tid":0,"ts":0,"dur":1,"args":{"vclock_s":0,"vclock_dur_s":2}},
{"name":"sync","cat":"train","ph":"X","tid":0,"ts":1,"dur":1,"args":{"vclock_s":2,"vclock_dur_s":1}}
]}`
	tr, err := Parse(strings.NewReader(aggOnly))
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(tr)
	if a.EnvelopeDerived || len(a.Steps) != 1 || a.Steps[0].Straggler != -1 ||
		a.TotalCompute != 2 || a.TotalSync != 1 {
		t.Fatalf("aggregate-only analysis = %+v", a)
	}

	// Rank-only: envelope derived from per-rank maxima.
	const rankOnly = `{"traceEvents":[
{"name":"compute","cat":"rank","ph":"X","tid":0,"ts":0,"dur":1,"args":{"vclock_s":0,"vclock_dur_s":1}},
{"name":"compute","cat":"rank","ph":"X","tid":1,"ts":0,"dur":1,"args":{"vclock_s":0,"vclock_dur_s":2}},
{"name":"exchange","cat":"rank","ph":"X","tid":0,"ts":1,"dur":1,"args":{"vclock_s":1,"vclock_dur_s":1.5}},
{"name":"exchange","cat":"rank","ph":"X","tid":1,"ts":1,"dur":1,"args":{"vclock_s":2,"vclock_dur_s":0.5}},
{"name":"update","cat":"rank","ph":"X","tid":0,"ts":2,"dur":1,"args":{"vclock_s":2.5,"vclock_dur_s":0.25}},
{"name":"update","cat":"rank","ph":"X","tid":1,"ts":2,"dur":1,"args":{"vclock_s":2.5,"vclock_dur_s":0.25}}
]}`
	tr2, err := Parse(strings.NewReader(rankOnly))
	if err != nil {
		t.Fatal(err)
	}
	b := Analyze(tr2)
	if !b.EnvelopeDerived || len(b.Steps) != 1 {
		t.Fatalf("rank-only analysis = %+v", b)
	}
	st := b.Steps[0]
	if st.Compute != 2 || st.Sync != 1.75 || st.Straggler != 1 || st.Wire != 0.5 {
		t.Fatalf("derived step = %+v", st)
	}
	if b.TotalCompute != 2 || b.TotalSync != 1.75 {
		t.Fatalf("derived totals = %v / %v", b.TotalCompute, b.TotalSync)
	}
}
