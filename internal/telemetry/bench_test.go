package telemetry

import (
	"testing"
	"time"

	"zipflm/internal/israce"
)

// TestHotPathZeroAlloc is the hard guard behind the package contract: the
// record methods — live and nil (telemetry off) — must never allocate.
func TestHotPathZeroAlloc(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Duration("h")
	var nilC *Counter
	var nilG *Gauge
	var nilH *Histogram
	var nilT *Tracer
	now := time.Now()

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(1) }},
		{"Gauge.Set", func() { g.Set(1.5) }},
		{"Histogram.Record", func() { h.Record(12345) }},
		{"Histogram.Observe", func() { h.Observe(time.Millisecond) }},
		{"nil Counter.Add", func() { nilC.Add(1) }},
		{"nil Gauge.Set", func() { nilG.Set(1.5) }},
		{"nil Histogram.Record", func() { nilH.Record(12345) }},
		{"nil Tracer.Span", func() { nilT.Span("c", "n", 0, now, time.Millisecond, 0, 0) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s: %g allocs/op, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkTelemetryRecord measures the per-observation cost of each hot
// instrument, plus the nil (telemetry off) cost of the same call sites.
func BenchmarkTelemetryRecord(b *testing.B) {
	r := NewRegistry()
	b.Run("counter", func(b *testing.B) {
		c := r.Counter("bench_c")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(1)
		}
	})
	b.Run("gauge", func(b *testing.B) {
		g := r.Gauge("bench_g")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Set(float64(i))
		}
	})
	b.Run("histogram", func(b *testing.B) {
		h := r.Duration("bench_h")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Record(int64(i))
		}
	})
	b.Run("histogram-off", func(b *testing.B) {
		var h *Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Record(int64(i))
		}
	})
}

// BenchmarkTracerSpan measures span recording (mutex + append; not a
// per-token path, but cheap enough for per-step and per-request use).
func BenchmarkTracerSpan(b *testing.B) {
	tr := NewTracer(b.N + 1)
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Span("bench", "span", 0, now, time.Microsecond, 0, 0)
	}
}
