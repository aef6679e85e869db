package traceview

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// SummaryOptions tunes WriteSummary.
type SummaryOptions struct {
	// TopN bounds the top-spans-by-virtual-duration table (0: 10).
	TopN int
	// MaxSteps bounds the per-step table (0: 12; negative: all).
	MaxSteps int
}

// v renders a virtual-clock duration with full float precision, so equal
// inputs render equal and regressions of any size are visible.
func v(x float64) string { return fmt.Sprintf("%.9g", x) }

// WriteSummary renders the analysis as the zipflm-trace report: totals,
// the per-step critical path, collective-op totals and the top spans.
func WriteSummary(w io.Writer, tr *Trace, a *Analysis, opts SummaryOptions) {
	topN := opts.TopN
	if topN == 0 {
		topN = 10
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 12
	}

	fmt.Fprintf(w, "trace: %d events, %d steps", a.Events, len(a.Steps))
	if a.Dropped > 0 {
		fmt.Fprintf(w, ", %d DROPPED (buffer bound hit — analysis covers the recorded prefix)", a.Dropped)
	}
	fmt.Fprintln(w)
	if a.Truncated && a.Dropped == 0 {
		fmt.Fprintln(w, "warning: span streams have unequal lengths; attribution covers the complete prefix only")
	}

	fmt.Fprintf(w, "critical path (vclock): total %s s = compute %s s + sync %s s",
		v(a.TotalEnvelope()), v(a.TotalCompute), v(a.TotalSync))
	if a.TotalCheckpoint > 0 {
		fmt.Fprintf(w, " + checkpoint %s s", v(a.TotalCheckpoint))
	}
	fmt.Fprintln(w)
	if len(a.Instants) > 0 {
		fmt.Fprint(w, "instants:")
		for _, kv := range sortedInstants(a.Instants) {
			fmt.Fprintf(w, " %s×%d", kv.name, kv.n)
		}
		fmt.Fprintln(w)
	}

	if len(a.Steps) > 0 {
		fmt.Fprintln(w, "\nper-step critical path:")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "step\tcompute_s\tsync_s\twire_s\tupdate_s")
		shown := len(a.Steps)
		if maxSteps > 0 && shown > maxSteps {
			shown = maxSteps
		}
		for _, st := range a.Steps[:shown] {
			fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\n", st.Index, v(st.Compute), v(st.Sync), v(st.Wire), v(st.Update))
		}
		tw.Flush()
		if shown < len(a.Steps) {
			fmt.Fprintf(w, "… %d more steps (-steps N to widen)\n", len(a.Steps)-shown)
		}
	}

	if len(a.Collectives) > 0 {
		fmt.Fprintln(w, "\ncollective ops (summed over calls):")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "op\tcalls\tvclock_s\twall_s")
		for _, ot := range a.Collectives {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%.6f\n", ot.Name, ot.Count, v(ot.VDur), ot.Wall)
		}
		tw.Flush()
	}

	if topN > 0 && tr != nil {
		spans := topSpans(tr, topN)
		if len(spans) > 0 {
			fmt.Fprintf(w, "\ntop %d spans by vclock duration:\n", len(spans))
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "cat\tname\ttid\tvclock_at_s\tvclock_dur_s")
			for _, s := range spans {
				fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\n", s.Cat, s.Name, s.Tid, v(s.VTS), v(s.VDur))
			}
			tw.Flush()
		}
	}
}

// topSpans returns the topN complete spans by virtual duration, ties
// broken by (VTS, cat, name, tid) so the order is a pure function of the
// trace contents.
func topSpans(tr *Trace, topN int) []Span {
	spans := make([]Span, 0, len(tr.Spans))
	for _, s := range tr.Spans {
		if s.Phase == "X" && s.VDur > 0 {
			spans = append(spans, s)
		}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.VDur != b.VDur {
			return a.VDur > b.VDur
		}
		if a.VTS != b.VTS {
			return a.VTS < b.VTS
		}
		if a.Cat != b.Cat {
			return a.Cat < b.Cat
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Tid < b.Tid
	})
	if len(spans) > topN {
		spans = spans[:topN]
	}
	return spans
}

type instantCount struct {
	name string
	n    int
}

func sortedInstants(m map[string]int) []instantCount {
	out := make([]instantCount, 0, len(m))
	for k, n := range m {
		out = append(out, instantCount{k, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// WriteDiff compares two analyses (A = baseline, B = candidate) on the
// virtual clock and reports per-total and per-step deltas. Two runs of the
// same seed produce bitwise-identical virtual clocks, so the diff of a
// true re-run is exactly zero — any nonzero delta is a real behavioral
// change, not noise. Returns true when B regresses (its critical-path
// total grew).
func WriteDiff(w io.Writer, a, b *Analysis) (regressed bool) {
	fmt.Fprintf(w, "A: %d steps, compute %s s, sync %s s, total %s s\n",
		len(a.Steps), v(a.TotalCompute), v(a.TotalSync), v(a.TotalEnvelope()))
	fmt.Fprintf(w, "B: %d steps, compute %s s, sync %s s, total %s s\n",
		len(b.Steps), v(b.TotalCompute), v(b.TotalSync), v(b.TotalEnvelope()))

	dTotal := b.TotalEnvelope() - a.TotalEnvelope()
	fmt.Fprintf(w, "delta: compute %+.9g s, sync %+.9g s, total %+.9g s\n",
		b.TotalCompute-a.TotalCompute, b.TotalSync-a.TotalSync, dTotal)

	n := min(len(a.Steps), len(b.Steps))
	var worstStep int
	var worstDelta float64
	for i := 0; i < n; i++ {
		d := (b.Steps[i].Compute + b.Steps[i].Sync) - (a.Steps[i].Compute + a.Steps[i].Sync)
		if ad := abs(d); ad > abs(worstDelta) {
			worstDelta = d
			worstStep = i
		}
	}
	if len(a.Steps) != len(b.Steps) {
		fmt.Fprintf(w, "step count changed: %d → %d (comparing first %d)\n", len(a.Steps), len(b.Steps), n)
	}
	if n > 0 {
		fmt.Fprintf(w, "worst step delta: step %d %+.9g s\n", worstStep, worstDelta)
	}

	identical := dTotal == 0 && b.TotalCompute == a.TotalCompute && b.TotalSync == a.TotalSync &&
		len(a.Steps) == len(b.Steps) && worstDelta == 0
	switch {
	case identical:
		fmt.Fprintln(w, "verdict: identical on the virtual clock — no regression")
	case dTotal > 0:
		fmt.Fprintf(w, "verdict: REGRESSION — critical path grew %.9g s (%.2f%%)\n",
			dTotal, 100*dTotal/a.TotalEnvelope())
	default:
		fmt.Fprintf(w, "verdict: improved or neutral — critical path changed %.9g s\n", dTotal)
	}
	return dTotal > 0
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
