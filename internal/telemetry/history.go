package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// This file is the time dimension of the telemetry layer. A Registry holds
// the *current* value of every instrument; History retains a bounded ring
// of periodic registry samples and exports it as JSON (WriteJSON: GET
// /metrics/history, zipflm-train -history), so any metric becomes a series
// for whoever reads the dump — counters difference into windowed rates,
// cumulative histogram snapshots into windowed distributions. History
// itself only samples and dumps; it computes no rates or windows. Every
// sample is stamped with both the wall clock and — when a reader is
// configured — the simulator's virtual clock, mirroring the dual timeline
// the Tracer records. Sampling only ever reads instruments, so the package
// contract holds: observation never perturbs, and every bit-identity suite
// passes with sampling on.

// HistoryConfig tunes a History.
type HistoryConfig struct {
	// Capacity is how many samples the ring retains (DefaultHistorySamples
	// when <= 0). Memory is bounded: old samples fall off the far end.
	Capacity int
	// Interval is Start's sampling period (DefaultHistoryInterval when 0).
	Interval time.Duration
	// VClock, when non-nil, is read at each sample and stamped on it —
	// typically cluster.MaxClock or a registry gauge reader — giving every
	// series a virtual-time axis next to the wall-time one.
	VClock func() float64
}

// Defaults for HistoryConfig zero values.
const (
	DefaultHistorySamples  = 512
	DefaultHistoryInterval = time.Second
)

// HistorySample is one periodic capture of a registry: every counter,
// gauge and histogram by name, the latter in cumulative sparse form so
// adjacent samples subtract into windowed distributions.
type HistorySample struct {
	// Seq numbers samples from 0; after wraparound it still increases, so
	// consumers can detect how much history fell off the ring.
	Seq uint64 `json:"seq"`
	// Wall is the sample's wall-clock stamp; VClock the virtual-clock
	// stamp (0 when no reader is configured).
	Wall     time.Time          `json:"wall"`
	VClock   float64            `json:"vclock_s"`
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
	Hists    map[string]HistCum `json:"histograms"`
}

// History is a fixed-size ring of registry samples. Create with
// NewHistory, then either call Sample on your own cadence or Start a
// background sampler. All methods are safe for concurrent use and
// nil-receiver safe (the history-off switch).
type History struct {
	reg *Registry
	cfg HistoryConfig

	mu   sync.Mutex
	ring []HistorySample
	next uint64 // sequence number of the next sample
}

// NewHistory returns a history sampling reg. A nil registry yields a nil
// History (sampling off).
func NewHistory(reg *Registry, cfg HistoryConfig) *History {
	if reg == nil {
		return nil
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultHistorySamples
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultHistoryInterval
	}
	return &History{reg: reg, cfg: cfg, ring: make([]HistorySample, 0, cfg.Capacity)}
}

// Sample captures the registry once, stamped at now. Registered collectors
// run first (exactly as an exporter scrape would), so derived gauges are
// fresh in the sample.
func (h *History) Sample(now time.Time) {
	if h == nil {
		return
	}
	counters, gauges, hists := h.reg.collect()
	s := HistorySample{
		Wall:     now,
		Counters: make(map[string]int64, len(counters)),
		Gauges:   make(map[string]float64, len(gauges)),
		Hists:    make(map[string]HistCum, len(hists)),
	}
	if h.cfg.VClock != nil {
		s.VClock = h.cfg.VClock()
	}
	h.reg.mu.Lock()
	cs := make([]*Counter, len(counters))
	for i, name := range counters {
		cs[i] = h.reg.counters[name]
	}
	gs := make([]*Gauge, len(gauges))
	for i, name := range gauges {
		gs[i] = h.reg.gauges[name]
	}
	hs := make([]*Histogram, len(hists))
	for i, name := range hists {
		hs[i] = h.reg.hists[name]
	}
	h.reg.mu.Unlock()
	for i, name := range counters {
		s.Counters[name] = cs[i].Value()
	}
	for i, name := range gauges {
		s.Gauges[name] = gs[i].Value()
	}
	for i, name := range hists {
		s.Hists[name] = hs[i].CumSnapshot()
	}

	h.mu.Lock()
	s.Seq = h.next
	h.next++
	if len(h.ring) < h.cfg.Capacity {
		h.ring = append(h.ring, s)
	} else {
		h.ring[int(s.Seq)%h.cfg.Capacity] = s
	}
	h.mu.Unlock()
}

// Start launches a background sampler at the configured interval and
// returns its stop function, which takes one final sample before
// returning so short runs still record an endpoint. Safe on a nil
// History (returns a no-op stop).
func (h *History) Start() (stop func()) {
	if h == nil {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(h.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				h.Sample(now)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
			h.Sample(time.Now())
		})
	}
}

// Samples returns the retained samples, oldest first. The sample maps are
// immutable after capture; callers must not modify them.
func (h *History) Samples() []HistorySample {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HistorySample, 0, len(h.ring))
	if len(h.ring) < h.cfg.Capacity {
		out = append(out, h.ring...)
		return out
	}
	// Full ring: the oldest sample sits at next % capacity.
	start := int(h.next) % h.cfg.Capacity
	out = append(out, h.ring[start:]...)
	out = append(out, h.ring[:start]...)
	return out
}

// historyDump is the JSON export envelope.
type historyDump struct {
	Capacity  int             `json:"capacity"`
	IntervalS float64         `json:"interval_s"`
	Samples   []HistorySample `json:"samples"`
}

// WriteJSON exports the retained samples (oldest first) with the ring
// configuration, as indented deterministic JSON — the machine-readable
// metric history of a run.
func (h *History) WriteJSON(w io.Writer) error {
	if h == nil {
		return nil
	}
	d := historyDump{
		Capacity:  h.cfg.Capacity,
		IntervalS: h.cfg.Interval.Seconds(),
		Samples:   h.Samples(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
