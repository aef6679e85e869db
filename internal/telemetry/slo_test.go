package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestSLOLatencyObjective(t *testing.T) {
	h := NewHistogram("s", 1e-9) // duration histogram: nanos in, seconds out
	s := NewSLO()
	s.Add(Objective{Name: "latency_p99", Hist: h, Quantile: 0.99, TargetSeconds: 0.5})

	// 99 fast requests, 1 slow: p99 lands in the fast mass, objective met.
	for i := 0; i < 99; i++ {
		h.Observe(10 * time.Millisecond)
	}
	h.Observe(2 * time.Second)

	now := time.Unix(1000, 0)
	sts := s.Evaluate(now)
	if len(sts) != 1 {
		t.Fatalf("statuses = %v", sts)
	}
	st := sts[0]
	if st.Kind != "latency" || st.Name != "latency_p99" {
		t.Fatalf("status = %+v", st)
	}
	if !st.Compliant {
		t.Fatalf("p99 ≈ 10ms should meet a 500ms target: %+v", st)
	}
	if st.Events != 100 || st.BadEvents != 1 {
		t.Fatalf("events=%d bad=%d, want 100/1", st.Events, st.BadEvents)
	}
	// Budget: 1 bad out of 100 events against a 1% budget — fully used
	// (tolerance: the budget fraction 1−0.99 is not exact in float64).
	if st.BudgetUsed < 0.999 || st.BudgetUsed > 1.001 {
		t.Fatalf("budget used = %v, want ≈1.0", st.BudgetUsed)
	}

	// Shift the distribution: now most requests are slow, p99 blows past
	// the target and the objective is violated.
	for i := 0; i < 300; i++ {
		h.Observe(2 * time.Second)
	}
	st = s.Evaluate(now)[0]
	if st.Compliant {
		t.Fatalf("p99 ≈ 2s should violate a 500ms target: %+v", st)
	}
	if got := st.String(); !strings.Contains(got, "VIOLATED") || !strings.Contains(got, "latency") {
		t.Fatalf("String() = %q", got)
	}
}

func TestSLOAvailabilityObjective(t *testing.T) {
	reg := NewRegistry()
	good := reg.Counter("good_total")
	bad := reg.Counter("bad_total")
	s := NewSLO()
	s.Add(Objective{Name: "availability", Good: []*Counter{good}, Bad: []*Counter{bad}, Target: 0.99})

	// No traffic: vacuously compliant, availability reads 1.
	st := s.Evaluate(time.Unix(0, 0))[0]
	if !st.Compliant || st.Current != 1 || st.Kind != "availability" {
		t.Fatalf("empty status = %+v", st)
	}

	// 99.5% good against a 99% target: met, half the budget spent.
	good.Add(995)
	bad.Add(5)
	st = s.Evaluate(time.Unix(0, 0))[0]
	if st.Current != 0.995 || !st.Compliant {
		t.Fatalf("99.5%% vs 99%% target: %+v", st)
	}
	if st.BudgetUsed < 0.499 || st.BudgetUsed > 0.501 {
		t.Fatalf("budget used = %v, want ≈0.5", st.BudgetUsed)
	}

	// More failures drive availability below target: violated, budget over.
	bad.Add(15) // 980 good / 1015 total ≈ 0.9803
	st = s.Evaluate(time.Unix(0, 0))[0]
	if st.Compliant {
		t.Fatalf("98%% vs 99%% target should violate: %+v", st)
	}
	if st.BudgetUsed <= 1 {
		t.Fatalf("budget used = %v, want > 1", st.BudgetUsed)
	}
	if got := st.String(); !strings.Contains(got, "VIOLATED") {
		t.Fatalf("String() = %q", got)
	}
}

func TestSLOBurnRates(t *testing.T) {
	reg := NewRegistry()
	good := reg.Counter("good_total")
	bad := reg.Counter("bad_total")
	s := NewSLO(time.Minute, 10*time.Minute)
	s.Add(Objective{Name: "avail", Good: []*Counter{good}, Bad: []*Counter{bad}, Target: 0.99})

	t0 := time.Unix(10_000, 0)
	good.Add(100)
	s.Tick(t0)

	// Over the next minute, 100 more events arrive and 2 are bad: a 2% bad
	// fraction against a 1% budget is a burn rate of exactly 2.
	good.Add(98)
	bad.Add(2)
	t1 := t0.Add(time.Minute)
	s.Tick(t1)
	st := s.Evaluate(t1)[0]
	if len(st.Burn) != 2 {
		t.Fatalf("burn windows = %v", st.Burn)
	}
	for _, b := range st.Burn {
		if b.Rate < 1.999 || b.Rate > 2.001 {
			t.Fatalf("burn over %v = %v, want ≈2.0", b.Window, b.Rate)
		}
	}

	// A quiet hour later the 1-minute window has no base sample inside it
	// (all samples are old), so only windows with an in-range base report.
	t2 := t1.Add(time.Hour)
	st = s.Evaluate(t2)[0]
	for _, b := range st.Burn {
		t.Fatalf("no sample within any window, got burn %v", b)
	}
}

func TestSLOPublish(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram("s", 1e-9)
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := NewSLO(time.Minute)
	s.Add(Objective{Name: "p99", Hist: h, Quantile: 0.99, TargetSeconds: 1})
	s.Publish(r)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`zipflm_slo_compliant{slo="p99"} 1`,
		`zipflm_slo_target{slo="p99"} 1`,
		`zipflm_slo_budget_used{slo="p99"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// Second scrape: the first Tick seeded a sample, so burn gauges appear.
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `zipflm_slo_burn_rate{slo="p99",window="1m0s"} 0`) {
		t.Errorf("missing burn gauge in:\n%s", buf.String())
	}
}

func TestSLONilSafety(t *testing.T) {
	var s *SLO
	s.Add(Objective{})
	s.Tick(time.Now())
	if got := s.Evaluate(time.Now()); got != nil {
		t.Fatalf("nil SLO evaluated to %v", got)
	}
	s.Publish(NewRegistry())

	// Objectives without instrument sources are ignored.
	s2 := NewSLO()
	s2.Add(Objective{Name: "empty"})
	if got := s2.Evaluate(time.Now()); len(got) != 0 {
		t.Fatalf("sourceless objective evaluated: %v", got)
	}
}

func TestHistogramCountAbove(t *testing.T) {
	h := NewHistogram("", 1)
	for _, v := range []int64{0, 1, 5, 10, 31, 100, 1000} {
		h.Record(v)
	}
	cases := []struct {
		v    int64
		want int64
	}{
		{0, 7},    // everything
		{1, 6},    // all but the 0
		{11, 3},   // 31, 100, 1000 (11 is an exact unit bucket bound)
		{2000, 0}, // above everything
	}
	for _, c := range cases {
		if got := h.CountAbove(c.v); got != c.want {
			t.Errorf("CountAbove(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// A threshold inside a log bucket excludes that bucket entirely:
	// the result is a lower bound, never an overcount of strictly-above.
	if got := h.CountAbove(33); got > 3 {
		t.Errorf("CountAbove(33) = %d overcounts", got)
	}
	var nilH *Histogram
	if nilH.CountAbove(0) != 0 {
		t.Fatal("nil histogram counted")
	}
}
