package experiments

import (
	"fmt"

	"zipflm/internal/core"
	"zipflm/internal/metrics"
)

func init() {
	register("mem", "§V-A / §III-A: peak GPU memory — baseline grows linearly, ours stays flat", runMem)
}

// runMem regenerates the memory narrative of the paper: the measured-GB
// progression of §V-A (baseline 3.9/7.1/10.3 GB at 8/16/24 GPUs, OOM after;
// ours ~1.2 GB flat through 64 GPUs; 8.6× reduction at 24 GPUs) and the
// §III-A worked example (35.2 GB → 0.137 GB at 256 GPUs).
func runMem(opts Options) (*Report, error) {
	w := wordLM()
	hw := w.hardware()

	paperBase := map[int]float64{8: 3.9, 16: 7.1, 24: 10.3}
	paperOurs := map[int]float64{8: 1.19, 24: 1.20, 64: 1.21}

	tab := metrics.NewTable("Peak GPU memory, word LM:",
		"GPUs", "baseline (paper)", "baseline (model)", "ours (paper)", "ours (model)")
	notes := []string{}
	var red24 float64
	for _, g := range []int{8, 16, 24, 32, 64} {
		_, base := priceStep(w, g, stackBaseline, opts.Seed)
		_, ours := priceStep(w, g, stackCompressed, opts.Seed)
		baseStr := metrics.HumanBytes(base)
		if base > hw.MemBytes {
			baseStr += " *(OOM)"
		}
		pb, pu := "-", "-"
		if v, ok := paperBase[g]; ok {
			pb = fmt.Sprintf("%.1f GB", v)
		} else if g >= 32 {
			pb = "*(OOM)"
		}
		if v, ok := paperOurs[g]; ok {
			pu = fmt.Sprintf("%.2f GB", v)
		}
		tab.AddRow(fmt.Sprintf("%d", g), pb, baseStr, pu, metrics.HumanBytes(ours))
		if g == 24 {
			red24 = float64(base) / float64(ours)
		}
	}
	notes = append(notes, fmt.Sprintf("memory reduction at 24 GPUs: %.1f× (paper: 8.6×)", red24))

	// §III-A worked example at 256 GPUs.
	const exG, exK, exD = 256, 19200, 1792
	baseCost := core.BaselineCost(exG, exK, exD, false)
	ug := core.ExpectedUnique(exG*exK, 0.64, 1.0, 1<<40)
	uniqueGB := float64(int64(ug)*exD*4) / 1e9
	ex := metrics.NewTable("§III-A worked example (c=150 sequences ×128, K=19200, D=1792, 256 GPUs):",
		"scheme", "per-GPU memory (paper)", "per-GPU memory (model)")
	ex.AddRow("ALLGATHER", "35.2 GB", metrics.HumanBytes(baseCost.ScratchBytes))
	ex.AddRow("uniqueness", "0.137 GB", fmt.Sprintf("%.3f GB (U_g = %d)", uniqueGB, ug))
	notes = append(notes, fmt.Sprintf("example saving: %.0f× (paper: 256×)",
		float64(baseCost.ScratchBytes)/(uniqueGB*1e9)))

	return &Report{Tables: []*metrics.Table{tab, ex}, Notes: notes}, nil
}
