package experiments

import (
	"fmt"

	"zipflm/internal/metrics"
)

func init() {
	register("fig6", "Figure 6: cumulative speedup of uniqueness, seeding, compression (word LM, 16 & 24 GPUs)", runFig6)
}

// runFig6 regenerates the optimization-ladder bar chart: the word-LM epoch
// time under each cumulative stack (baseline → +uniqueness → +seeding →
// +compression) at 16 and 24 GPUs, expressed as speedup over the baseline.
func runFig6(opts Options) (*Report, error) {
	w := wordLM()
	hw := w.hardware()

	// Paper's Figure 6 bars.
	paper := map[int]map[stackKind]float64{
		16: {stackBaseline: 1.0, stackUnique: 4.0, stackSeeded: 4.3, stackCompressed: 5.1},
		24: {stackBaseline: 1.0, stackUnique: 5.1, stackSeeded: 5.4, stackCompressed: 6.3},
	}

	tab := metrics.NewTable("Speedup over baseline word LM:",
		"GPUs", "stack", "speedup (paper)", "speedup (model)", "epoch hrs (model)")
	notes := []string{}
	for _, g := range []int{16, 24} {
		var baseHours, prev float64
		for _, stack := range []stackKind{stackBaseline, stackUnique, stackSeeded, stackCompressed} {
			cost, _ := priceStep(w, g, stack, opts.Seed)
			hours := hw.EpochTime(g, w.K, w.TokensPerEpoch, cost)
			if stack == stackBaseline {
				baseHours = hours
			}
			speedup := baseHours / hours
			tab.AddRow(fmt.Sprintf("%d", g), stack.String(),
				fmt.Sprintf("%.1f", paper[g][stack]),
				fmt.Sprintf("%.1f", speedup),
				fmt.Sprintf("%.1f", hours))
			if speedup+1e-9 < prev {
				notes = append(notes, fmt.Sprintf(
					"MISMATCH: %s at %d GPUs regressed the ladder (%.2f after %.2f)",
					stack, g, speedup, prev))
			}
			prev = speedup
		}
	}
	notes = append(notes,
		"ladder must be monotone: each technique adds on top of the previous",
		"uniqueness contributes the bulk (paper: ~4×), matching the total/unique word ratio of Figure 1",
	)
	return &Report{Tables: []*metrics.Table{tab}, Notes: notes}, nil
}
