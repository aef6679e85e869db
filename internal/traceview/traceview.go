// Package traceview analyzes the Chrome trace_event JSON timelines the
// telemetry.Tracer writes, decoding them through the writer's own
// telemetry.ChromeTrace: it reconstructs each training step from the
// trainer's step spans, splits the step's sync phase into wire and update
// time, and aggregates per-collective-op traffic. cmd/zipflm-trace is the
// CLI over this package.
//
// The analysis is deterministic: it is a pure function of the parsed
// floats, so the same trace always produces the same attribution, and the
// totals — the sums of the "train" compute/sync span durations — equal the
// trainer's SimComputeSeconds/SimSyncSeconds bitwise (encoding/json
// round-trips float64 exactly, and the sums accumulate the identical values
// in the identical order the trainer did).
package traceview

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"zipflm/internal/telemetry"
)

// Span is one parsed trace event. TS/Dur are wall microseconds relative to
// the tracer start; VTS/VDur are virtual-clock seconds.
type Span struct {
	Name  string
	Cat   string
	Phase string
	Tid   int
	TS    float64
	Dur   float64
	VTS   float64
	VDur  float64
}

// Trace is a parsed trace file: every event in record order, plus the
// dropped-event count the tracer recorded when its buffer bound hit.
type Trace struct {
	Spans   []Span
	Dropped int64
}

// Parse reads a Chrome trace_event JSON document.
func Parse(r io.Reader) (*Trace, error) {
	var ft telemetry.ChromeTrace
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ft); err != nil {
		return nil, fmt.Errorf("traceview: parsing trace: %w", err)
	}
	tr := &Trace{Dropped: ft.Dropped, Spans: make([]Span, 0, len(ft.TraceEvents))}
	for _, e := range ft.TraceEvents {
		tr.Spans = append(tr.Spans, Span{
			Name: e.Name, Cat: e.Cat, Phase: e.Ph, Tid: e.Tid,
			TS: e.TS, Dur: e.Dur, VTS: e.Args.VClockS, VDur: e.Args.VClockDurS,
		})
	}
	return tr, nil
}

// ParseFile reads and parses one trace file.
func ParseFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("traceview: %w", err)
	}
	defer f.Close()
	return Parse(f)
}

// Step is one training step's critical-path decomposition on the virtual
// clock. Compute and Sync are the step's phases (bitwise the trainer's
// accounting); Wire, Update and Other split Sync and stay zero when the
// trace carries no exchange and update spans (the weak-scaling sweep's).
type Step struct {
	Index   int
	Compute float64
	Sync    float64
	// Wire is the exchange span: from the end of compute until the step's
	// last collective completed.
	Wire float64
	// Update is the embedding-update span.
	Update float64
	// Other is the residual Sync − Wire − Update: the rounding of three
	// differences of one clock, zero or a few ulps.
	Other float64
}

// OpTotal aggregates one collective operation across the trace: Count
// calls, their summed virtual durations, and their summed wall time.
type OpTotal struct {
	Name  string
	Count int
	VDur  float64
	Wall  float64 // seconds, from wall-clock span durations
}

// Analysis is the full report computed from one trace.
type Analysis struct {
	Events  int
	Dropped int64
	// Truncated is set when the tracer dropped events or the step streams
	// disagree in length — per-step attribution then covers only the
	// complete prefix.
	Truncated bool
	Steps     []Step
	// TotalCompute/TotalSync sum the step spans in record order — bitwise
	// equal to the trainer's SimComputeSeconds / SimSyncSeconds when the
	// trace came from a trainer run.
	TotalCompute    float64
	TotalSync       float64
	TotalCheckpoint float64
	// Collectives aggregates cat="collective" spans per op name.
	Collectives []OpTotal
	// Instants counts instant events by name (fault-rollback, shed, …).
	Instants map[string]int
}

// Analyze computes the critical-path report for a parsed trace. The step
// spans (cat "train": compute, sync, exchange, update) are written in step
// order by one goroutine, so the i-th of each name belongs to step i.
func Analyze(tr *Trace) *Analysis {
	a := &Analysis{
		Events:    len(tr.Spans),
		Dropped:   tr.Dropped,
		Truncated: tr.Dropped > 0,
		Instants:  map[string]int{},
	}
	var compute, sync, exchange, update []float64
	opTotals := map[string]*OpTotal{}
	for _, s := range tr.Spans {
		if s.Phase == "i" {
			a.Instants[s.Name]++
			continue
		}
		if s.Phase != "X" {
			continue
		}
		switch s.Cat {
		case "train":
			switch s.Name {
			case "compute":
				a.TotalCompute += s.VDur
				compute = append(compute, s.VDur)
			case "sync":
				a.TotalSync += s.VDur
				sync = append(sync, s.VDur)
			case "exchange":
				exchange = append(exchange, s.VDur)
			case "update":
				update = append(update, s.VDur)
			case "checkpoint":
				a.TotalCheckpoint += s.VDur
			}
		case "collective":
			ot := opTotals[s.Name]
			if ot == nil {
				ot = &OpTotal{Name: s.Name}
				opTotals[s.Name] = ot
			}
			ot.Count++
			ot.VDur += s.VDur
			ot.Wall += s.Dur / 1e6
		}
	}
	for _, ot := range opTotals {
		a.Collectives = append(a.Collectives, *ot)
	}
	sort.Slice(a.Collectives, func(i, j int) bool { return a.Collectives[i].Name < a.Collectives[j].Name })

	steps := min(len(compute), len(sync))
	split := min(len(exchange), len(update))
	if len(compute) != len(sync) || len(exchange)+len(update) > 0 && (len(exchange) != steps || len(update) != steps) {
		a.Truncated = true
	}
	for i := 0; i < steps; i++ {
		st := Step{Index: i, Compute: compute[i], Sync: sync[i]}
		if i < split {
			st.Wire, st.Update = exchange[i], update[i]
			st.Other = st.Sync - st.Wire - st.Update
		}
		a.Steps = append(a.Steps, st)
	}
	return a
}

// AnalyzeFile parses and analyzes one trace file.
func AnalyzeFile(path string) (*Analysis, error) {
	tr, err := ParseFile(path)
	if err != nil {
		return nil, err
	}
	return Analyze(tr), nil
}

// TotalEnvelope is the critical-path total: the virtual-clock seconds the
// cluster spent across all steps (compute + sync + checkpoint).
func (a *Analysis) TotalEnvelope() float64 {
	return a.TotalCompute + a.TotalSync + a.TotalCheckpoint
}
