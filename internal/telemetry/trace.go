package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one recorded trace event. TS/Dur are wall time relative to the
// tracer's start; VTS/VDur are the virtual-clock position and duration in
// simulated seconds (zero when the producing subsystem runs without a
// cost model). Phase "X" is a complete span, "i" an instant.
type Event struct {
	Name  string
	Cat   string
	Phase byte
	Tid   int
	TS    time.Duration
	Dur   time.Duration
	VTS   float64
	VDur  float64
}

// Tracer records spans and instants from any number of goroutines and
// exports them as Chrome trace_event JSON, viewable in chrome://tracing or
// Perfetto. Storage is bounded: past MaxEvents the tracer drops new events
// and counts them, so a long run cannot grow without bound. A nil Tracer
// ignores everything — the tracing-off switch.
type Tracer struct {
	mu      sync.Mutex
	start   time.Time
	events  []Event
	max     int
	dropped int64
}

// DefaultMaxEvents bounds a tracer's buffer unless overridden.
const DefaultMaxEvents = 1 << 20

// NewTracer returns a tracer anchored at the current wall time. maxEvents
// <= 0 takes DefaultMaxEvents.
func NewTracer(maxEvents int) *Tracer {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &Tracer{start: time.Now(), max: maxEvents}
}

// Start returns the tracer's wall-clock anchor.
func (t *Tracer) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Span records a complete span: [start, start+dur) on the wall timeline,
// [vts, vts+vdur) on the virtual one (pass zeros when unclocked).
func (t *Tracer) Span(cat, name string, tid int, start time.Time, dur time.Duration, vts, vdur float64) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Cat: cat, Phase: 'X', Tid: tid, TS: start.Sub(t.start), Dur: dur, VTS: vts, VDur: vdur})
}

// Instant records a zero-duration marker (a fault, a rollback, a shed).
func (t *Tracer) Instant(cat, name string, tid int, at time.Time, vts float64) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Cat: cat, Phase: 'i', Tid: tid, TS: at.Sub(t.start), VTS: vts})
}

func (t *Tracer) add(e Event) {
	t.mu.Lock()
	if len(t.events) >= t.max {
		t.dropped++
	} else {
		t.events = append(t.events, e)
	}
	t.mu.Unlock()
}

// Len returns the number of buffered events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the buffered events in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// chromeEvent is the trace_event JSON shape ("JSON Object Format", the
// {"traceEvents": […]} envelope below).
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat,omitempty"`
	Ph   string          `json:"ph"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	TS   float64         `json:"ts"`            // microseconds
	Dur  float64         `json:"dur,omitempty"` // microseconds
	S    string          `json:"s,omitempty"`   // instant scope
	Args chromeEventArgs `json:"args"`
}

type chromeEventArgs struct {
	VClockS    float64 `json:"vclock_s"`
	VClockDurS float64 `json:"vclock_dur_s"`
}

// ChromeTrace is the trace file: the document WriteChromeTrace encodes and
// traceview decodes, so the two sides share one set of JSON tags.
type ChromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Dropped         int64         `json:"zipflmDroppedEvents,omitempty"`
}

// WriteChromeTrace writes the buffered events as Chrome trace_event JSON.
// Wall time is the timeline (microseconds since the tracer's start); the
// virtual-clock stamps ride in every event's args as vclock_s /
// vclock_dur_s, so a cost-modeled run carries its predicted timeline next
// to the measured one.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	events := append([]Event(nil), t.events...)
	dropped := t.dropped
	t.mu.Unlock()

	out := ChromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(events)),
		DisplayTimeUnit: "ms",
		Dropped:         dropped,
	}
	for _, e := range events {
		ce := chromeEvent{
			Name: e.Name,
			Cat:  e.Cat,
			Ph:   string(e.Phase),
			Tid:  e.Tid,
			TS:   float64(e.TS) / float64(time.Microsecond),
			Dur:  float64(e.Dur) / float64(time.Microsecond),
			Args: chromeEventArgs{VClockS: e.VTS, VClockDurS: e.VDur},
		}
		if e.Phase == 'i' {
			ce.S = "t" // thread-scoped instant
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// WriteFile writes the Chrome trace to path, replacing any file there. A
// nil Tracer writes nothing and creates no file.
func (t *Tracer) WriteFile(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
