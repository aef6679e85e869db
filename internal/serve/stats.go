package serve

import (
	"strconv"
	"time"

	"zipflm/internal/telemetry"
)

// statsCollector accumulates serving telemetry on a telemetry.Registry —
// the single source of truth: Snapshot (and the /v1/stats JSON built from
// it) and the Prometheus /metrics endpoint read the same instruments. The
// server always owns a registry (a private one when Config.Telemetry is
// nil), so the collector's instruments are never nil; recording is a few
// atomic operations, cheaper than the mutex ring it replaced. All methods
// are safe for concurrent use.
type statsCollector struct {
	start time.Time
	reg   *telemetry.Registry

	accepted        *telemetry.Counter
	completed       *telemetry.Counter
	shed            *telemetry.Counter
	expired         *telemetry.Counter
	expiredInFlight *telemetry.Counter
	discardedTokens *telemetry.Counter
	tokens          *telemetry.Counter
	stepCount       *telemetry.Counter
	batchSum        *telemetry.Counter
	lat             *telemetry.Histogram
	occupancy       *telemetry.Gauge
	// batches[b] counts steps executed at batch size b
	// (zipflm_serve_batch_steps_total{batch="b"}).
	batches []*telemetry.Counter
}

func newStatsCollector(maxBatch int, reg *telemetry.Registry) *statsCollector {
	s := &statsCollector{
		start:           time.Now(),
		reg:             reg,
		accepted:        reg.Counter("zipflm_serve_accepted_total"),
		completed:       reg.Counter("zipflm_serve_completed_total"),
		shed:            reg.Counter("zipflm_serve_shed_total"),
		expired:         reg.Counter("zipflm_serve_expired_total"),
		expiredInFlight: reg.Counter("zipflm_serve_expired_in_flight_total"),
		discardedTokens: reg.Counter("zipflm_serve_discarded_tokens_total"),
		tokens:          reg.Counter("zipflm_serve_tokens_total"),
		stepCount:       reg.Counter("zipflm_serve_steps_total"),
		batchSum:        reg.Counter("zipflm_serve_seq_steps_total"),
		lat:             reg.Duration("zipflm_serve_latency_seconds"),
		occupancy:       reg.Gauge("zipflm_serve_batch_occupancy"),
		batches:         make([]*telemetry.Counter, maxBatch+1),
	}
	for b := range s.batches {
		s.batches[b] = reg.Counter(telemetry.Label("zipflm_serve_batch_steps_total", "batch", strconv.Itoa(b)))
	}
	return s
}

func (s *statsCollector) onAccept() { s.accepted.Inc() }

func (s *statsCollector) onShed(deadline bool) {
	if deadline {
		s.expired.Inc()
	} else {
		s.shed.Inc()
	}
}

// onExpire records an in-flight deadline expiry: a sequence that was
// already generating when its deadline passed, discarding the tokens it
// had produced. (Pre-service expiries go through onShed(true) — they
// never cost a forward pass.)
func (s *statsCollector) onExpire(discarded int) {
	s.expired.Inc()
	s.expiredInFlight.Inc()
	s.discardedTokens.Add(int64(discarded))
}

func (s *statsCollector) onComplete(tokens int, latency time.Duration) {
	s.completed.Inc()
	s.tokens.Add(int64(tokens))
	s.lat.Observe(latency)
}

func (s *statsCollector) onBatchStep(b int) {
	if b >= 0 && b < len(s.batches) {
		s.batches[b].Inc()
	}
	s.batchSum.Add(int64(b))
	s.stepCount.Inc()
	s.occupancy.SetInt(int64(b))
}

// Snapshot is a point-in-time view of serving telemetry.
type Snapshot struct {
	// Uptime since the server started.
	Uptime time.Duration
	// Accepted counts requests admitted past the queue (cache hits served
	// directly are Completed without being Accepted).
	Accepted uint64
	// Completed counts requests answered with tokens (including cache
	// hits); Shed were refused at admission (queue full), Expired had
	// their deadline pass before or during service.
	Completed, Shed, Expired uint64
	// ExpiredInFlight is the subset of Expired that had already started
	// generating (abandoned at a step boundary or mid-linger);
	// DiscardedTokens is the partial output those sequences discarded —
	// the compute wasted on callers that stopped waiting.
	ExpiredInFlight, DiscardedTokens uint64
	// Tokens is the total tokens delivered (cache hits count: they
	// displaced generation work).
	Tokens uint64
	// LatencyP50/P99 are quantiles over every completion, read from the
	// registry's log-bucket latency histogram (within ±1.6% relative
	// error); LatencyMean averages every completion since the server
	// started.
	LatencyP50, LatencyP99, LatencyMean time.Duration
	// MeanBatch is sequence-steps per model step — the batching factor
	// actually achieved; BatchDist[b] is how many steps ran at batch b.
	MeanBatch float64
	BatchDist []uint64
	// Cache telemetry (zero when the respective cache is disabled).
	ResultHits, ResultMisses, ResultEvicted uint64
	ResultEntries                           int
	PrefixHits, PrefixMisses, PrefixEvicted uint64
	PrefixEntries                           int
	// WeightsVersion is the current weights generation (1 at start; each
	// Reload increments it); Reloads counts completed Reload calls.
	WeightsVersion uint64
	Reloads        int64
	// Quantized reports whether the server serves int8 weights.
	Quantized bool
}

// HitRate returns result-cache hits / lookups, 0 when no lookups happened.
func (s Snapshot) HitRate() float64 {
	total := s.ResultHits + s.ResultMisses
	if total == 0 {
		return 0
	}
	return float64(s.ResultHits) / float64(total)
}

// snapshot assembles the exported view from the registry instruments
// (cache counters are merged in by the server, which owns the caches).
func (s *statsCollector) snapshot() Snapshot {
	out := Snapshot{
		Uptime:          time.Since(s.start),
		Accepted:        uint64(s.accepted.Value()),
		Completed:       uint64(s.completed.Value()),
		Shed:            uint64(s.shed.Value()),
		Expired:         uint64(s.expired.Value()),
		ExpiredInFlight: uint64(s.expiredInFlight.Value()),
		DiscardedTokens: uint64(s.discardedTokens.Value()),
		Tokens:          uint64(s.tokens.Value()),
		BatchDist:       make([]uint64, len(s.batches)),
	}
	for b, c := range s.batches {
		out.BatchDist[b] = uint64(c.Value())
	}
	if steps := s.stepCount.Value(); steps > 0 {
		out.MeanBatch = float64(s.batchSum.Value()) / float64(steps)
	}
	if n := s.lat.Count(); n > 0 {
		out.LatencyP50 = time.Duration(s.lat.P50())
		out.LatencyP99 = time.Duration(s.lat.P99())
		out.LatencyMean = time.Duration(s.lat.Sum() / n)
	}
	return out
}
