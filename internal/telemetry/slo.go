package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file is the SLO engine: service-level objectives declared over
// instruments the registry already owns, evaluated SRE-style — every
// objective reduces to a good/bad event pair, budget burn is the bad
// fraction divided by the error budget (1 − target), and burn rates are
// computed over multiple trailing windows from periodically sampled
// cumulative counts (the classic multi-window multi-burn-rate alerting
// shape). Evaluation only reads instruments; like the rest of the
// package, an SLO observes and never perturbs.

// Objective declares one service-level objective. Exactly one of the two
// kinds is set:
//
//   - Latency: Hist + Quantile + TargetSeconds — "the Quantile-th latency
//     quantile stays at or below TargetSeconds". Observations above the
//     threshold are the bad events (Histogram.CountAbove), everything
//     recorded is an event.
//
//   - Availability: Good + Bad counter sets + Target — "at least Target of
//     all events are good". Shed, expired or errored requests land in Bad.
type Objective struct {
	// Name identifies the objective in Status, /v1/stats and /metrics
	// labels (e.g. "latency_p99", "availability").
	Name string

	// Latency objective.
	Hist          *Histogram
	Quantile      float64 // e.g. 0.99
	TargetSeconds float64 // threshold in the histogram's exported unit

	// Availability objective.
	Good   []*Counter
	Bad    []*Counter
	Target float64 // availability target in (0,1), e.g. 0.999
}

// latency reports which kind this objective is.
func (o *Objective) latency() bool { return o.Hist != nil }

// budgetFraction returns the error budget 1 − target (fraction of events
// allowed to be bad).
func (o *Objective) budgetFraction() float64 {
	t := o.Target
	if o.latency() {
		t = o.Quantile
	}
	if t <= 0 || t >= 1 {
		return 1
	}
	return 1 - t
}

// counts returns cumulative (events, bad) for the objective.
func (o *Objective) counts() (events, bad int64) {
	if o.latency() {
		f := o.Hist.Factor()
		if f <= 0 {
			f = 1
		}
		raw := int64(o.TargetSeconds / f)
		return o.Hist.Count(), o.Hist.CountAbove(raw)
	}
	for _, c := range o.Good {
		events += c.Value()
	}
	for _, c := range o.Bad {
		b := c.Value()
		events += b
		bad += b
	}
	return events, bad
}

// WindowBurn is the burn rate over one trailing window: the rate at which
// the error budget was consumed, normalized so 1.0 means "exactly on
// budget" (burning the whole budget if sustained) and >1 means burning
// faster than the objective allows. 0 when the window saw no events.
type WindowBurn struct {
	Window time.Duration `json:"window"`
	Rate   float64       `json:"rate"`
}

// Status is one objective's evaluation.
type Status struct {
	Name string `json:"name"`
	// Kind is "latency" or "availability".
	Kind      string `json:"kind"`
	Compliant bool   `json:"compliant"`
	// Current is the lifetime observed value: the latency quantile in
	// seconds for latency objectives, the availability fraction otherwise.
	Current float64 `json:"current"`
	// Target mirrors the declared objective: TargetSeconds or Target.
	Target float64 `json:"target"`
	// Events and BadEvents are lifetime cumulative counts.
	Events    int64 `json:"events"`
	BadEvents int64 `json:"bad_events"`
	// BudgetUsed is the lifetime budget consumption: bad/(events·budget).
	// 1.0 means the whole lifetime error budget is spent.
	BudgetUsed float64 `json:"budget_used"`
	// Burn holds the multi-window burn rates (empty until Tick has
	// sampled at least once and traffic arrived).
	Burn []WindowBurn `json:"burn,omitempty"`
}

// String renders a status one-line, for notes and logs.
func (s Status) String() string {
	cur := fmt.Sprintf("%.4f", s.Current)
	tgt := fmt.Sprintf("%.4f", s.Target)
	if s.Kind == "latency" {
		cur = fmt.Sprintf("%.6fs", s.Current)
		tgt = fmt.Sprintf("%.6fs", s.Target)
	}
	verdict := "MET"
	if !s.Compliant {
		verdict = "VIOLATED"
	}
	return fmt.Sprintf("SLO %s (%s): %s — current %s vs target %s, budget used %.1f%% over %d events",
		s.Name, s.Kind, verdict, cur, tgt, 100*s.BudgetUsed, s.Events)
}

// sample is one Tick's cumulative counts for every objective.
type sample struct {
	at     time.Time
	events []int64
	bad    []int64
}

// SLO evaluates a set of objectives with multi-window burn rates. Create
// with NewSLO, declare objectives with Add, call Tick periodically (the
// registry's OnCollect hook via Publish does this on every scrape), and
// read Evaluate. All methods are nil-receiver safe.
type SLO struct {
	mu      sync.Mutex
	objs    []Objective
	windows []time.Duration
	samples []sample // time-ordered ring, oldest first
}

// DefaultBurnWindows are the trailing windows burn rates are computed over
// when NewSLO is given none.
var DefaultBurnWindows = []time.Duration{time.Minute, 10 * time.Minute}

// NewSLO returns an engine computing burn rates over the given trailing
// windows (DefaultBurnWindows when none).
func NewSLO(windows ...time.Duration) *SLO {
	if len(windows) == 0 {
		windows = append([]time.Duration(nil), DefaultBurnWindows...)
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i] < windows[j] })
	return &SLO{windows: append([]time.Duration(nil), windows...)}
}

// Add declares an objective. Objectives with a nil instrument source are
// ignored.
func (s *SLO) Add(o Objective) {
	if s == nil {
		return
	}
	if o.Hist == nil && len(o.Good) == 0 && len(o.Bad) == 0 {
		return
	}
	s.mu.Lock()
	s.objs = append(s.objs, o)
	s.samples = nil // counts-per-objective shape changed; restart sampling
	s.mu.Unlock()
}

// Tick samples every objective's cumulative counts at now, retaining just
// enough history to cover the longest burn window. Call it on a timer or
// from a scrape hook; irregular cadence is fine (burn rates interpolate
// nothing — they use the oldest sample inside each window).
func (s *SLO) Tick(now time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sm := sample{at: now, events: make([]int64, len(s.objs)), bad: make([]int64, len(s.objs))}
	for i := range s.objs {
		sm.events[i], sm.bad[i] = s.objs[i].counts()
	}
	s.samples = append(s.samples, sm)
	// Trim samples older than the longest window, always keeping one
	// sample at or beyond the horizon so the widest window has a base.
	horizon := now.Add(-s.windows[len(s.windows)-1])
	cut := 0
	for cut+1 < len(s.samples) && !s.samples[cut+1].at.After(horizon) {
		cut++
	}
	if cut > 0 {
		s.samples = append(s.samples[:0], s.samples[cut:]...)
	}
}

// Evaluate returns every objective's status as of now, in declaration
// order. Burn rates need at least one prior Tick; lifetime fields are
// always fresh.
func (s *SLO) Evaluate(now time.Time) []Status {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, len(s.objs))
	for i := range s.objs {
		o := &s.objs[i]
		events, bad := o.counts()
		st := Status{Name: o.Name, Kind: "availability", Events: events, BadEvents: bad}
		if o.latency() {
			st.Kind = "latency"
		}
		budget := o.budgetFraction()
		if events > 0 {
			st.BudgetUsed = float64(bad) / (float64(events) * budget)
		}
		if o.latency() {
			st.Current = float64(o.Hist.Quantile(o.Quantile)) * o.Hist.Factor()
			st.Target = o.TargetSeconds
			st.Compliant = events == 0 || st.Current <= o.TargetSeconds
		} else {
			st.Current = 1
			if events > 0 {
				st.Current = float64(events-bad) / float64(events)
			}
			st.Target = o.Target
			st.Compliant = events == 0 || st.Current >= o.Target
		}
		for _, w := range s.windows {
			base, ok := s.oldestWithin(now, w, i)
			if !ok {
				continue
			}
			dEvents := events - base.events[i]
			dBad := bad - base.bad[i]
			rate := 0.0
			if dEvents > 0 {
				rate = (float64(dBad) / float64(dEvents)) / budget
			}
			st.Burn = append(st.Burn, WindowBurn{Window: w, Rate: rate})
		}
		out[i] = st
	}
	return out
}

// oldestWithin returns the oldest sample no older than now−w that has
// counts for objective i. Callers hold s.mu.
func (s *SLO) oldestWithin(now time.Time, w time.Duration, i int) (sample, bool) {
	horizon := now.Add(-w)
	for _, sm := range s.samples {
		if !sm.at.Before(horizon) && i < len(sm.events) {
			return sm, true
		}
	}
	return sample{}, false
}

// Publish wires the SLO into a registry: every scrape ticks the engine and
// refreshes per-objective gauges —
//
//	zipflm_slo_compliant{slo="…"}            1 or 0
//	zipflm_slo_current{slo="…"}              observed quantile / availability
//	zipflm_slo_target{slo="…"}               declared target
//	zipflm_slo_budget_used{slo="…"}          lifetime budget fraction spent
//	zipflm_slo_burn_rate{slo="…",window="…"} multi-window burn rates
//
// — so dashboards and alerts consume objectives the same way they consume
// any other family.
func (s *SLO) Publish(r *Registry) {
	if s == nil || r == nil {
		return
	}
	r.OnCollect(func() {
		now := time.Now()
		s.Tick(now)
		for _, st := range s.Evaluate(now) {
			compliant := 0.0
			if st.Compliant {
				compliant = 1
			}
			r.Gauge(Label("zipflm_slo_compliant", "slo", st.Name)).Set(compliant)
			r.Gauge(Label("zipflm_slo_current", "slo", st.Name)).Set(st.Current)
			r.Gauge(Label("zipflm_slo_target", "slo", st.Name)).Set(st.Target)
			r.Gauge(Label("zipflm_slo_budget_used", "slo", st.Name)).Set(st.BudgetUsed)
			for _, b := range st.Burn {
				name := Label(Label("zipflm_slo_burn_rate", "slo", st.Name), "window", b.Window.String())
				r.Gauge(name).Set(b.Rate)
			}
		}
	})
}
