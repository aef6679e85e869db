// Package telemetry is the unified observability layer: a metrics registry
// of atomic counters, gauges and log-scale histograms, one exporter
// (Prometheus text exposition) and the parser its readers use, and a span
// tracer that stamps events with both wall time and the simulator's
// virtual clock (trace.go), exporting Chrome trace_event JSON.
//
// The design contract mirrors the repository's exact-bits discipline:
//
//   - Observation never perturbs computation. Instruments only ever read
//     or count; no code path consults a metric to make a decision, so
//     every bit-identity suite holds with telemetry on or off.
//
//   - Telemetry off costs nothing measurable. Every record method is
//     nil-receiver safe, and a nil *Registry hands out nil instruments,
//     so an uninstrumented subsystem pays one predictable branch per
//     call site — the same gating pattern collective.CostModel uses.
//
//   - The hot path never allocates. Counter.Add, Gauge.Set and
//     Histogram.Record are a handful of atomic operations on fixed
//     storage (testing.AllocsPerRun guards them); registry lookups happen
//     once at wiring time, never per record.
//
// Commands attach the observers in one place (observe.go):
// Options.RegisterFlags declares the observer flags, Start runs them, and
// the listener behind -metrics-addr serves /metrics and net/http/pprof's
// /debug/pprof/. Every metric family has a reader — a dash panel, a CI
// assertion, a serve.Snapshot field or a failure count — and the root
// package's TestMetricFamiliesHaveReaders keeps it that way. Service-level
// objectives are evaluated by the scraper from the exported series, not
// here.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter ignores updates (telemetry off).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically-set float64 value (queue depth, batch occupancy,
// goodput). The zero value is ready; a nil Gauge ignores updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetInt stores an integer value.
func (g *Gauge) SetInt(n int64) { g.Set(float64(n)) }

// Value returns the current value (0 on a nil Gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry owns a process's instruments by name. Instruments are created
// on first request and shared thereafter; names follow Prometheus
// conventions and may carry a label set in braces
// (`zipflm_x_total{wire="fp16"}`), which the exporters group into one
// metric family per base name. A nil *Registry hands out nil instruments,
// which record nothing — the telemetry-off switch.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given export
// factor if needed (see NewHistogram). An existing histogram's factor is
// not altered.
func (r *Registry) Histogram(name string, factor float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(factor)
		r.hists[name] = h
	}
	return h
}

// Duration returns the named histogram configured for time.Duration
// observations: nanosecond storage exported in seconds.
func (r *Registry) Duration(name string) *Histogram {
	return r.Histogram(name, 1e-9)
}

// OnCollect registers a callback run before every export, for metrics
// derived from state the registry does not own (cache counters, queue
// length). Callbacks must only read and set instruments.
func (r *Registry) OnCollect(f func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, f)
	r.mu.Unlock()
}

// named is one instrument and its name.
type named[T any] struct {
	name string
	v    T
}

// sortedNamed lists m's entries by name. The caller holds the registry's
// lock.
func sortedNamed[T any](m map[string]T) []named[T] {
	out := make([]named[T], 0, len(m))
	for n, v := range m {
		out = append(out, named[T]{n, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// collect runs the registered collectors and returns name-sorted views of
// each instrument class, resolved under the lock: an exporter reads the
// instruments afterwards without touching the maps, which a concurrent
// Counter, Gauge or Histogram call may be growing.
func (r *Registry) collect() ([]named[*Counter], []named[*Gauge], []named[*Histogram]) {
	r.mu.Lock()
	cbs := append([]func(){}, r.collectors...)
	r.mu.Unlock()
	for _, f := range cbs {
		f()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedNamed(r.counters), sortedNamed(r.gauges), sortedNamed(r.hists)
}

// Label appends one label pair to a metric name, composing with any labels
// already present: Label(`m{a="1"}`, "b", "2") == `m{a="1",b="2"}`. The
// value is escaped per the Prometheus text-format rules (backslash, double
// quote, newline) at build time, since the label body is stored inside the
// instrument name and never re-parsed by the exporters.
func Label(name, key, value string) string {
	value = escapeLabelValue(value)
	if n := len(name); n > 0 && name[n-1] == '}' {
		return name[:n-1] + `,` + key + `="` + value + `"}`
	}
	return name + `{` + key + `="` + value + `"}`
}

// escapeLabelValue escapes a label value for text exposition: `\` → `\\`,
// `"` → `\"`, newline → `\n`. Values without special characters are
// returned unchanged (no allocation).
func escapeLabelValue(v string) string {
	clean := true
	for i := 0; i < len(v); i++ {
		if c := v[i]; c == '\\' || c == '"' || c == '\n' {
			clean = false
			break
		}
	}
	if clean {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// splitName separates a possibly-labelled metric name into its family and
// the raw label body (without braces, empty when unlabelled).
func splitName(name string) (family, labels string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			return name[:i], name[i+1 : len(name)-1]
		}
	}
	return name, ""
}
