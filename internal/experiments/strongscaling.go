// This file regenerates the paper's *strong-scaling* tables (III/IV): fixed
// dataset, growing cluster, epoch hours dropping with G. The weak-scaling
// counterpart — fixed per-rank work, the online virtual-clock experiment —
// lives in weakscale.go.
package experiments

import (
	"fmt"

	"zipflm/internal/metrics"
	"zipflm/internal/perfmodel"
)

func init() {
	register("tab3", "Table III: word-LM per-epoch hours and parallel efficiency, 8–64 GPUs", runTab3)
	register("tab4", "Table IV: char-LM per-epoch hours and parallel efficiency, 8–64 GPUs", runTab4)
}

// paperScaling holds the published Table III/IV rows for side-by-side
// reporting. A negative time means out of GPU memory ("*").
type paperScaling struct {
	gpus          []int
	baselineHours []float64
	oursHours     []float64
}

func runTab3(opts Options) (*Report, error) {
	paper := paperScaling{
		gpus:          []int{8, 16, 24, 32, 64},
		baselineHours: []float64{35.1, 41.1, 40.4, -1, -1},
		oursHours:     []float64{14.6, 8.1, 6.4, 5.4, 4.5},
	}
	return runScaling(wordLM(), paper, opts)
}

func runTab4(opts Options) (*Report, error) {
	paper := paperScaling{
		gpus:          []int{8, 16, 24, 32, 64},
		baselineHours: []float64{25.7, 14.5, 10.6, -1, -1},
		oursHours:     []float64{23.2, 12.9, 8.2, 6.8, 3.5},
	}
	return runScaling(charLM(), paper, opts)
}

// runScaling regenerates one scaling table: for each GPU count it measures
// the step's unique-word structure at full scale, assembles the cost model,
// applies the Titan X hardware profile, and checks the 12 GB memory budget
// to reproduce the baseline's OOM boundary.
func runScaling(w scalingWorkload, paper paperScaling, opts Options) (*Report, error) {
	hw := w.hardware()
	tab := metrics.NewTable(
		fmt.Sprintf("%s on %s (tokens/epoch = %.2e, K = %d/GPU):", w.Name, hw.Name, float64(w.TokensPerEpoch), w.K),
		"GPUs",
		"base hrs (paper)", "base hrs (model)", "base eff",
		"ours hrs (paper)", "ours hrs (model)", "ours eff")

	// Efficiency is relative to the first GPU count each stack ran at.
	var baseHours0, oursHours0, oursHours float64
	var baseG0, oursG0 int
	notes := []string{}
	for i, g := range paper.gpus {
		// Baseline column: OOM when Θ(G·K·D) scratch exceeds the 12 GB
		// budget, exactly the "*" rows of the paper.
		baseStr, baseEff := "*(OOM)", "-"
		baseCost, mem := priceStep(w, g, stackBaseline, opts.Seed)
		if mem <= hw.MemBytes {
			baseHours := hw.EpochTime(g, w.K, w.TokensPerEpoch, baseCost)
			if baseG0 == 0 {
				baseHours0, baseG0 = baseHours, g
			}
			baseStr = fmt.Sprintf("%.1f", baseHours)
			baseEff = fmt.Sprintf("%.0f%%", 100*perfmodel.ParallelEfficiency(baseHours0, baseG0, baseHours, g))
		}

		cost, _ := priceStep(w, g, stackCompressed, opts.Seed)
		oursHours = hw.EpochTime(g, w.K, w.TokensPerEpoch, cost)
		if oursG0 == 0 {
			oursHours0, oursG0 = oursHours, g
		}
		oursEff := fmt.Sprintf("%.0f%%", 100*perfmodel.ParallelEfficiency(oursHours0, oursG0, oursHours, g))

		paperBase := "*(OOM)"
		if paper.baselineHours[i] > 0 {
			paperBase = fmt.Sprintf("%.1f", paper.baselineHours[i])
		}
		tab.AddRow(fmt.Sprintf("%d", g),
			paperBase, baseStr, baseEff,
			fmt.Sprintf("%.1f", paper.oursHours[i]), fmt.Sprintf("%.1f", oursHours), oursEff)

		// Sanity cross-checks recorded as notes.
		if paper.baselineHours[i] < 0 && mem <= hw.MemBytes {
			notes = append(notes, fmt.Sprintf("MISMATCH: paper baseline OOMs at %d GPUs, model fits (%s)", g, metrics.HumanBytes(mem)))
		}
		if paper.baselineHours[i] > 0 && mem > hw.MemBytes {
			notes = append(notes, fmt.Sprintf("MISMATCH: model baseline OOMs at %d GPUs, paper ran", g))
		}
	}

	// The loop leaves oursHours at the last GPU count's epoch.
	last := len(paper.gpus) - 1
	notes = append(notes, fmt.Sprintf("model speedup %d→%d GPUs: %.1f× (paper: %.1f×)",
		oursG0, paper.gpus[last], perfmodel.Speedup(oursHours0, oursHours),
		perfmodel.Speedup(paper.oursHours[0], paper.oursHours[last])))

	return &Report{Tables: []*metrics.Table{tab}, Notes: notes}, nil
}
