// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each experiment has an id (fig1, tab3, …), produces a
// Report whose tables print the same rows/series the paper reports, and
// annotates paper-reported values alongside measured ones.
//
// Two execution styles are used:
//
//   - Scaling/memory experiments (tab3, tab4, tab5 time columns, fig6, mem)
//     run the *index-level* workload at full paper scale — real Zipf token
//     draws, real sampled-softmax candidate draws, real unique-merging
//     through the same code paths the exchange engines use — and evaluate
//     the D-dependent byte/FLOP volumes through the closed-form cost model
//     (validated against measured exchanges in internal/core's tests) and
//     the calibrated perfmodel hardware model.
//
//   - Accuracy experiments (fig5, fig7, fig8, tab5 perplexity column, bpc)
//     run real distributed training of scaled-down models over the
//     simulated cluster, reproducing the paper's *trends*.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"zipflm/internal/metrics"
	"zipflm/internal/telemetry"
)

// Options tunes experiment execution.
type Options struct {
	// Quick shrinks the training-based experiments for fast runs (tests
	// and smoke checks); the scaling experiments are always full-scale.
	Quick bool
	// Seed makes every experiment reproducible.
	Seed uint64
	// Trace, when non-nil, collects span timelines from the experiments
	// that train over the simulated cluster (the fault-injection sweep and
	// the weak-scaling sweep) — export it with
	// telemetry.Tracer.WriteChromeTrace. Purely observational; results are
	// identical with or without it.
	Trace *telemetry.Tracer
	// Flight, when non-nil, receives anomaly records (fault injections,
	// rollbacks) from the training-based experiments; dump it with
	// telemetry.Flight.Trigger or SIGQUIT. Purely observational.
	Flight *telemetry.Flight
}

// Report is one experiment's output.
type Report struct {
	// ID is the experiment identifier (fig1, tab3, …).
	ID string
	// Title describes the paper artifact reproduced.
	Title string
	// Tables hold the regenerated rows.
	Tables []*metrics.Table
	// Notes carry paper-vs-measured commentary.
	Notes []string
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// runner is one registered experiment.
type runner struct {
	title string
	fn    func(Options) (*Report, error)
}

var registry = map[string]runner{}

func register(id, title string, fn func(Options) (*Report, error)) {
	registry[id] = runner{title: title, fn: fn}
}

// IDs returns all experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's display title.
func Title(id string) string { return registry[id].title }

// Run executes one experiment by id.
func Run(id string, opts Options) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	rep, err := r.fn(opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	rep.ID = id
	rep.Title = r.title
	return rep, nil
}
