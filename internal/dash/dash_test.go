package dash

import (
	"strings"
	"testing"
	"time"

	"zipflm/internal/telemetry"
)

// snapAt builds a snapshot the way a poller would see one.
func snapshotOf(build func(r *telemetry.Registry)) telemetry.Snapshot {
	r := telemetry.NewRegistry()
	build(r)
	return r.Snapshot()
}

func TestSparkline(t *testing.T) {
	if got := Sparkline([]float64{0, 1, 2, 3}, 4); got != "▁▃▅█" {
		t.Errorf("ramp sparkline = %q", got)
	}
	if got := Sparkline([]float64{5, 5, 5}, 3); got != "▁▁▁" {
		t.Errorf("flat sparkline = %q, want lowest level", got)
	}
	if got := Sparkline([]float64{1, 2}, 4); got != "  ▁█" {
		t.Errorf("short series = %q, want right-aligned", got)
	}
	if got := Sparkline([]float64{1, 2, 3, 4, 5, 6}, 3); got != "▁▄█" {
		t.Errorf("truncated series = %q, want newest 3", got)
	}
	if Sparkline(nil, 0) != "" {
		t.Error("zero width must render empty")
	}
}

func TestBoardDerivesRatesAndTrends(t *testing.T) {
	b := New(8)
	t0 := time.Unix(1000, 0)

	b.Observe(t0, snapshotOf(func(r *telemetry.Registry) {
		r.Counter("zipflm_serve_tokens_total").Add(100)
		r.Gauge("zipflm_serve_queue_depth").SetInt(2)
		h := r.Duration("zipflm_serve_latency_seconds")
		h.Observe(10 * time.Millisecond)
	}))
	b.Observe(t0.Add(2*time.Second), snapshotOf(func(r *telemetry.Registry) {
		r.Counter("zipflm_serve_tokens_total").Add(300)
		r.Gauge("zipflm_serve_queue_depth").SetInt(5)
		h := r.Duration("zipflm_serve_latency_seconds")
		h.Observe(10 * time.Millisecond)
		h.Observe(20 * time.Millisecond)
		h.Observe(40 * time.Millisecond)
	}))

	frame := b.Frame("test", false)
	if !strings.Contains(frame, "serve tok/s") || !strings.Contains(frame, "100") {
		t.Errorf("frame missing token rate (Δ200 over 2s = 100/s):\n%s", frame)
	}
	if !strings.Contains(frame, "queue depth") {
		t.Errorf("frame missing queue depth gauge:\n%s", frame)
	}
	// Windowed latency mean: between the snapshots the histogram gained 2
	// observations summing 60ms (wait: 20+40) → 30ms.
	if !strings.Contains(frame, "latency") {
		t.Errorf("frame missing latency panel:\n%s", frame)
	}
	// Panels whose metrics never appeared stay hidden.
	if strings.Contains(frame, "train tok/s") || strings.Contains(frame, "goodput") {
		t.Errorf("training panels shown without training metrics:\n%s", frame)
	}
}

func TestBoardWindowedLatencyMean(t *testing.T) {
	b := New(8)
	t0 := time.Unix(1000, 0)
	b.Observe(t0, snapshotOf(func(r *telemetry.Registry) {
		r.Duration("zipflm_serve_latency_seconds").Observe(100 * time.Millisecond)
	}))
	b.Observe(t0.Add(time.Second), snapshotOf(func(r *telemetry.Registry) {
		h := r.Duration("zipflm_serve_latency_seconds")
		h.Observe(100 * time.Millisecond) // the pre-window observation
		h.Observe(20 * time.Millisecond)
		h.Observe(40 * time.Millisecond)
	}))
	var lat *panel
	for _, p := range b.panels {
		if p.name == "latency" {
			lat = p
		}
	}
	if lat == nil || !lat.seen {
		t.Fatal("latency panel not derived")
	}
	if lat.last < 29.9 || lat.last > 30.1 {
		t.Fatalf("windowed latency mean = %g ms, want ≈30 (lifetime mean would be ≈53)", lat.last)
	}
}

func TestBoardSLOFooter(t *testing.T) {
	b := New(8)
	snap := snapshotOf(func(r *telemetry.Registry) {
		r.Gauge(`zipflm_slo_compliant{slo="latency_p99"}`).Set(0)
		r.Gauge(`zipflm_slo_current{slo="latency_p99"}`).Set(0.8)
		r.Gauge(`zipflm_slo_target{slo="latency_p99"}`).Set(0.5)
		r.Gauge(`zipflm_slo_budget_used{slo="latency_p99"}`).Set(2.5)
		r.Gauge(`zipflm_slo_burn_rate{slo="latency_p99",window="1m0s"}`).Set(3)
	})
	b.Observe(time.Unix(1000, 0), snap)
	b.Observe(time.Unix(1001, 0), snap)
	frame := b.Frame("test", false)
	if !strings.Contains(frame, "latency_p99") || !strings.Contains(frame, "VIOLATED") {
		t.Errorf("SLO footer missing violation:\n%s", frame)
	}
	if !strings.Contains(frame, "SLO burn max") {
		t.Errorf("burn-rate panel missing:\n%s", frame)
	}
}

func TestFrameANSIAndPlain(t *testing.T) {
	b := New(4)
	b.Observe(time.Unix(1000, 0), telemetry.Snapshot{})
	plain := b.Frame("t", false)
	if strings.Contains(plain, "\x1b") {
		t.Error("plain frame contains escape sequences")
	}
	if !strings.Contains(plain, "waiting for two samples") {
		t.Errorf("empty board frame:\n%s", plain)
	}
	ansi := b.Frame("t", true)
	if !strings.Contains(ansi, ansiHome) {
		t.Error("ANSI frame missing cursor home")
	}
}
