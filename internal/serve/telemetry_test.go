package serve

import (
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"zipflm/internal/sampling"
	"zipflm/internal/telemetry"
)

// TestTelemetryRegistryParity: Snapshot reads from the telemetry registry,
// so every Snapshot counter must equal the corresponding registry
// instrument — one source of truth for /v1/stats and /metrics — and
// responses must stay bit-identical to the uninstrumented sequential path.
func TestTelemetryRegistryParity(t *testing.T) {
	m := lstmModel()
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	s := New(m, Config{Workers: 1, MaxBatch: 4, CacheEntries: 8, Telemetry: reg, Tracer: tracer})
	defer s.Close()

	req := Request{Prompt: []int{3, 1, 4}, N: 6, Opts: sampling.DecodeOpts{Temperature: 0.8, TopK: 12}, Seed: 42}
	want := reference(m, req)
	for i := 0; i < 3; i++ { // first generates, rest hit the result cache
		res, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		for j, tok := range res.Tokens {
			if tok != want[j] {
				t.Fatalf("submit %d: token %d = %d, want %d (telemetry perturbed generation)", i, j, tok, want[j])
			}
		}
	}

	snap := s.Stats()
	checks := []struct {
		name string
		reg  int64
		snap uint64
	}{
		{"zipflm_serve_accepted_total", reg.Counter("zipflm_serve_accepted_total").Value(), snap.Accepted},
		{"zipflm_serve_completed_total", reg.Counter("zipflm_serve_completed_total").Value(), snap.Completed},
		{"zipflm_serve_tokens_total", reg.Counter("zipflm_serve_tokens_total").Value(), snap.Tokens},
		{"zipflm_serve_shed_total", reg.Counter("zipflm_serve_shed_total").Value(), snap.Shed},
		{"zipflm_serve_expired_total", reg.Counter("zipflm_serve_expired_total").Value(), snap.Expired},
	}
	for _, c := range checks {
		if c.reg != int64(c.snap) {
			t.Errorf("%s: registry %d != snapshot %d", c.name, c.reg, c.snap)
		}
	}
	if snap.Completed != 3 || snap.Accepted != 1 {
		t.Fatalf("want 3 completed / 1 accepted (2 cache hits), got %d/%d", snap.Completed, snap.Accepted)
	}
	if snap.Tokens != 18 {
		t.Fatalf("want 18 tokens, got %d", snap.Tokens)
	}
	if got := reg.Duration("zipflm_serve_latency_seconds").Count(); got != 3 {
		t.Fatalf("latency histogram has %d observations, want 3", got)
	}
	if snap.LatencyP50 <= 0 || snap.LatencyMean <= 0 {
		t.Fatalf("latency quantiles not populated: p50=%v mean=%v", snap.LatencyP50, snap.LatencyMean)
	}

	// The private-registry default behaves identically: Stats still works
	// and Telemetry() exposes the registry.
	s2 := New(m, Config{Workers: 1})
	defer s2.Close()
	if s2.reg == nil {
		t.Fatal("server without Config.Telemetry must own a private registry")
	}
	if _, err := s2.Submit(req); err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Completed; got != 1 {
		t.Fatalf("private-registry server: completed = %d, want 1", got)
	}
}

// TestTelemetryPrometheusExposition: the shared registry serves the cache /
// queue gauges (folded in at collect time) and the serve counters in
// Prometheus text format, among them the inputs of a latency and an
// availability objective: the cumulative latency buckets and the outcome
// counters.
func TestTelemetryPrometheusExposition(t *testing.T) {
	m := lstmModel()
	reg := telemetry.NewRegistry()
	s := New(m, Config{Workers: 1, CacheEntries: 4, Telemetry: reg})
	defer s.Close()
	req := Request{Prompt: []int{5, 9}, N: 3, Seed: 7}
	if _, err := s.Submit(req); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(req); err != nil { // result-cache hit
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"zipflm_serve_completed_total 2",
		"zipflm_serve_result_cache_hits 1",
		"zipflm_serve_result_cache_misses 1",
		"zipflm_serve_queue_depth 0",
		"zipflm_serve_weights_version 1",
		"zipflm_serve_latency_seconds_count 2",
		`zipflm_serve_latency_seconds_bucket{le="+Inf"} 2`,
		"zipflm_serve_shed_total 0",
		"zipflm_serve_expired_total 0",
		`zipflm_serve_batch_steps_total{batch="1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTelemetryRequestSpans: every generated (non-cache-hit) completion
// leaves a queue + prefill + decode span triple; expiries leave instants
// and flight records.
func TestTelemetryRequestSpans(t *testing.T) {
	m := lstmModel()
	tracer, flight := telemetry.NewTracer(0), telemetry.NewFlight(32)
	flight.SetSink(io.Discard)
	s := New(m, Config{Workers: 1, Tracer: tracer, Flight: flight})
	for i := 0; i < 4; i++ {
		req := Request{Prompt: []int{i + 1, i + 2}, N: 3, Seed: uint64(i)}
		if _, err := s.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	// An expired deadline at submission leaves an instant, not spans.
	_, err := s.Submit(Request{Prompt: []int{1}, N: 1, Seed: 1, Deadline: time.Now().Add(-time.Second)})
	if err != ErrDeadlineExceeded {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	s.Close()

	byName := map[string]int{}
	for _, e := range tracer.Events() {
		if e.Cat == "serve" {
			byName[e.Name]++
		}
		if e.Phase == 'X' && e.Dur < 0 {
			t.Errorf("span %s has negative duration %v", e.Name, e.Dur)
		}
	}
	for _, name := range []string{"queue", "prefill", "decode"} {
		if byName[name] != 4 {
			t.Errorf("span %q recorded %d times, want 4", name, byName[name])
		}
	}
	if byName["expired"] != 1 {
		t.Errorf("expired instant recorded %d times, want 1", byName["expired"])
	}
	if flight.Recorded() == 0 {
		t.Error("the expiry did not record into the flight ring")
	}
}

// TestSnapshotFieldParity pins the exported Snapshot field set: the /v1/stats
// JSON is built from these fields, so removing or renaming one is a
// backward-compatibility break that must be deliberate.
func TestSnapshotFieldParity(t *testing.T) {
	want := []string{
		"Uptime", "Accepted", "Completed", "Shed", "Expired",
		"ExpiredInFlight", "DiscardedTokens", "Tokens",
		"LatencyP50", "LatencyP99", "LatencyMean",
		"MeanBatch", "BatchDist",
		"ResultHits", "ResultMisses", "ResultEvicted", "ResultEntries",
		"PrefixHits", "PrefixMisses", "PrefixEvicted", "PrefixEntries",
		"WeightsVersion", "Reloads", "Quantized",
	}
	typ := reflect.TypeOf(Snapshot{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot fields changed:\n got %v\nwant %v", got, want)
	}
}
