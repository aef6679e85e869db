package experiments

import (
	"strings"
	"testing"

	"zipflm/internal/perfmodel"
	"zipflm/internal/sampling"
)

func quickOpts() Options { return Options{Quick: true, Seed: 42} }

func TestRegistryComplete(t *testing.T) {
	want := []string{"abl-fp16", "abl-sampler", "abl-seed", "bpc", "compress", "faults", "fig1", "fig5", "fig6", "fig7", "fig8", "mem", "overlap", "serving", "tab1", "tab3", "tab4", "tab5", "weakscale"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry has %v, want %v", got, want)
		}
		if Title(want[i]) == "" {
			t.Errorf("%s has no title", want[i])
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", quickOpts()); err == nil {
		t.Fatal("unknown id must error")
	}
}

// TestOverlapExperiment regenerates the overlap ablation and checks its
// invariants: the overlapped path must move exactly the bytes the
// synchronous path moves (the table flags any divergence with "NO"), and
// its predicted step must not exceed the synchronous one (the report warns
// about either).
func TestOverlapExperiment(t *testing.T) {
	rep, err := Run("overlap", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	if strings.Contains(out, "NO (") || strings.Contains(out, "WARNING") {
		t.Errorf("overlap changed the wire bytes or predicted a slower step:\n%s", out)
	}
	for _, want := range []string{"speedup", "pred sync ms/step", "pred overlap ms/step", "predicted"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

// TestFaultsExperiment gates the fault-injection goodput sweep: failures
// must actually be injected and cost work, the virtual clock must stay
// deterministic under rollback, and every swept MTBF's empirically-best
// checkpoint interval must land within the Young/Daly ballpark.
func TestFaultsExperiment(t *testing.T) {
	rep, err := Run("faults", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	if strings.Contains(out, "WARNING") {
		t.Errorf("faults experiment lost determinism:\n%s", out)
	}
	if strings.Contains(out, "OUTSIDE the Young/Daly ballpark") {
		t.Errorf("empirically-best interval off the Young/Daly prediction:\n%s", out)
	}
	if !strings.Contains(out, "within the Young/Daly ballpark") {
		t.Errorf("missing the measured-vs-predicted comparison:\n%s", out)
	}
	if !strings.Contains(out, "goodput") {
		t.Errorf("missing goodput column:\n%s", out)
	}
	if !strings.Contains(out, "deterministic: re-running a cell") {
		t.Errorf("missing determinism check:\n%s", out)
	}
}

func TestFig1PowerLaw(t *testing.T) {
	rep, err := Run("fig1", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	if strings.Contains(out, "WARNING") {
		t.Errorf("fig1 exponent out of band:\n%s", out)
	}
	if !strings.Contains(out, "R² = 1.00") && !strings.Contains(out, "R² = 0.99") {
		t.Errorf("fig1 fit not near-perfect:\n%s", out)
	}
}

func TestTab1ListsAllDatasets(t *testing.T) {
	rep, err := Run("tab1", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, name := range []string{"1b", "gb", "ar", "tieba", "93.12 GB"} {
		if !strings.Contains(out, name) {
			t.Errorf("tab1 missing %q", name)
		}
	}
}

// TestTab3ReproducesShape asserts the load-bearing claims of Table III:
// the baseline OOMs at 32+ GPUs, ours scales to 64, and the modeled hours
// track the paper's within a reasonable band.
func TestTab3ReproducesShape(t *testing.T) {
	w := wordLM()
	hw := w.hardware()

	// OOM boundary.
	for _, g := range []int{8, 16, 24} {
		if peakMemory(w, g, stackBaseline, 42) > hw.MemBytes {
			t.Errorf("baseline must fit at %d GPUs", g)
		}
	}
	for _, g := range []int{32, 64} {
		if peakMemory(w, g, stackBaseline, 42) <= hw.MemBytes {
			t.Errorf("baseline must OOM at %d GPUs", g)
		}
	}

	// Paper's "ours" hours within 15%.
	paper := map[int]float64{8: 14.6, 16: 8.1, 24: 6.4, 32: 5.4, 64: 4.5}
	for g, want := range paper {
		cost := stepCost(w, g, stackCompressed, 42)
		got := hw.EpochTime(g, w.K, w.TokensPerEpoch, cost)
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("ours at %d GPUs: model %.1f h, paper %.1f h", g, got, want)
		}
	}

	// Baseline is dramatically slower than ours at every runnable size.
	for _, g := range []int{8, 16, 24} {
		base := hw.EpochTime(g, w.K, w.TokensPerEpoch, stepCost(w, g, stackBaseline, 42))
		ours := hw.EpochTime(g, w.K, w.TokensPerEpoch, stepCost(w, g, stackCompressed, 42))
		if base < 2*ours {
			t.Errorf("at %d GPUs baseline %.1f h not well above ours %.1f h", g, base, ours)
		}
	}
}

// TestTab4ReproducesShape does the same for the char LM.
func TestTab4ReproducesShape(t *testing.T) {
	w := charLM()
	hw := w.hardware()
	for _, g := range []int{8, 16, 24} {
		if peakMemory(w, g, stackBaseline, 42) > hw.MemBytes {
			t.Errorf("char baseline must fit at %d GPUs", g)
		}
	}
	for _, g := range []int{32, 64} {
		if peakMemory(w, g, stackBaseline, 42) <= hw.MemBytes {
			t.Errorf("char baseline must OOM at %d GPUs", g)
		}
	}
	paper := map[int]float64{8: 23.2, 16: 12.9, 24: 8.2, 32: 6.8, 64: 3.5}
	for g, want := range paper {
		got := hw.EpochTime(g, w.K, w.TokensPerEpoch, stepCost(w, g, stackCompressed, 42))
		if got < want*0.8 || got > want*1.2 {
			t.Errorf("char ours at %d GPUs: model %.1f h, paper %.1f h", g, got, want)
		}
	}
	// §V-B headline: 6.6× speedup with 8× more GPUs.
	s8 := hw.EpochTime(8, w.K, w.TokensPerEpoch, stepCost(w, 8, stackCompressed, 42))
	s64 := hw.EpochTime(64, w.K, w.TokensPerEpoch, stepCost(w, 64, stackCompressed, 42))
	if sp := s8 / s64; sp < 6.0 || sp > 7.3 {
		t.Errorf("char speedup = %.1f×, paper says 6.6×", sp)
	}
}

// TestFig6LadderMonotone asserts each cumulative optimization helps and
// uniqueness dominates, as in the paper's bars.
func TestFig6LadderMonotone(t *testing.T) {
	w := wordLM()
	hw := w.hardware()
	for _, g := range []int{16, 24} {
		var prevSpeedup float64
		base := hw.EpochTime(g, w.K, w.TokensPerEpoch, stepCost(w, g, stackBaseline, 42))
		for _, stack := range []stackKind{stackBaseline, stackUnique, stackSeeded, stackCompressed} {
			hours := hw.EpochTime(g, w.K, w.TokensPerEpoch, stepCost(w, g, stack, 42))
			speedup := base / hours
			if speedup+1e-9 < prevSpeedup {
				t.Errorf("g=%d: %v regressed (%.2f after %.2f)", g, stack, speedup, prevSpeedup)
			}
			prevSpeedup = speedup
		}
		// Uniqueness alone contributes several-fold.
		uniq := base / hw.EpochTime(g, w.K, w.TokensPerEpoch, stepCost(w, g, stackUnique, 42))
		if uniq < 3 {
			t.Errorf("g=%d: uniqueness speedup %.1f, paper says ≥4×", g, uniq)
		}
	}
	// 24-GPU total beats 16-GPU total (paper: 6.3 vs 5.1).
	s := func(g int) float64 {
		return hw.EpochTime(g, w.K, w.TokensPerEpoch, stepCost(w, g, stackBaseline, 42)) /
			hw.EpochTime(g, w.K, w.TokensPerEpoch, stepCost(w, g, stackCompressed, 42))
	}
	if s(24) <= s(16) {
		t.Errorf("total speedup must grow with G: %.1f at 16 vs %.1f at 24", s(16), s(24))
	}
}

// TestMemReproducesPaper asserts the §V-A memory points within 10% and the
// 8.6× reduction.
func TestMemReproducesPaper(t *testing.T) {
	w := wordLM()
	paper := map[int]float64{8: 3.9e9, 16: 7.1e9, 24: 10.3e9}
	for g, want := range paper {
		got := float64(peakMemory(w, g, stackBaseline, 42))
		if got < want*0.9 || got > want*1.1 {
			t.Errorf("baseline memory at %d GPUs: %.2f GB, paper %.2f GB", g, got/1e9, want/1e9)
		}
	}
	for _, g := range []int{8, 24, 64} {
		ours := float64(peakMemory(w, g, stackCompressed, 42))
		if ours < 1.1e9 || ours > 1.35e9 {
			t.Errorf("ours memory at %d GPUs: %.2f GB, paper ~1.2 GB", g, ours/1e9)
		}
	}
	red := float64(peakMemory(w, 24, stackBaseline, 42)) / float64(peakMemory(w, 24, stackCompressed, 42))
	if red < 7.5 || red > 9.5 {
		t.Errorf("24-GPU memory reduction %.1f×, paper 8.6×", red)
	}
}

// TestTab5TimeModel asserts the weak-scaling headline: 32× more data and
// GPUs costs only ~1.25× more time.
func TestTab5TimeModel(t *testing.T) {
	w := tiebaLM()
	hw := w.hardware()
	hours := func(g int, chars float64) float64 {
		return hw.EpochTime(g, w.K, int64(chars*1e9), stepCost(w, g, stackCompressed, 42))
	}
	h6 := hours(6, 1.07)
	h24 := hours(24, 4.29)
	h192 := hours(192, 34.36)
	if h6 < 24 || h6 > 30 {
		t.Errorf("6-GPU epoch %.1f h, paper 27 h", h6)
	}
	if r := h24 / h6; r < 1.0 || r > 1.1 {
		t.Errorf("24-GPU time ratio %.2f, paper 1.04", r)
	}
	if r := h192 / h6; r < 1.15 || r > 1.35 {
		t.Errorf("192-GPU time ratio %.2f, paper 1.25", r)
	}
	// Aggregate compute throughput ≈ 0.76 PFLOP/s on 192 GPUs (the
	// paper's figure measures the kernels, not the synchronization gaps).
	computeSec := w.FLOPsPerStep / (hw.PeakFLOPS * w.AchievedFrac)
	pflops := 192 * w.FLOPsPerStep / computeSec / 1e15
	if pflops < 0.68 || pflops > 0.84 {
		t.Errorf("aggregate compute throughput %.2f PFLOP/s, paper 0.76", pflops)
	}
}

// TestTab5Training asserts the accuracy half's trend: more data at the same
// step count lowers perplexity.
func TestTab5Training(t *testing.T) {
	rep, err := Run("tab5", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("tab5 must produce two tables")
	}
	out := rep.String()
	if strings.Contains(out, "NaN") {
		t.Errorf("tab5 produced NaN:\n%s", out)
	}
}

// TestSeedingMeasuredUnique checks the §III-B structural claim at full
// paper scale: ZipfFreq collapses the output-embedding unique count far
// below AllDifferent while AllSame is the floor.
func TestSeedingMeasuredUnique(t *testing.T) {
	w := wordLM()
	const g = 64
	_, _, _, ugDiff := measuredUnique(w, g, sampling.AllDifferent, 42)
	_, _, _, ugZipf := measuredUnique(w, g, sampling.ZipfFreq, 42)
	_, _, _, ugSame := measuredUnique(w, g, sampling.AllSame, 42)
	if !(ugSame < ugZipf && ugZipf < ugDiff) {
		t.Errorf("unique ordering broken: same=%d zipf=%d diff=%d", ugSame, ugZipf, ugDiff)
	}
	// ZipfFreq's 15 seeds at 64 ranks roughly halve the unique count
	// (log-uniform candidate overlap already compresses AllDifferent well
	// below G·S at a 100K vocabulary).
	if float64(ugZipf) > 0.6*float64(ugDiff) {
		t.Errorf("ZipfFreq saves too little: %d vs %d", ugZipf, ugDiff)
	}
}

func TestFig7Ordering(t *testing.T) {
	rep, err := Run("fig7", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	if !strings.Contains(out, "Zipf's-freq") || !strings.Contains(out, "log10G") {
		t.Errorf("fig7 missing strategies:\n%s", out)
	}
}

func TestFig8Converges(t *testing.T) {
	rep, err := Run("fig8", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rep.String(), "WARNING") {
		t.Errorf("fig8 did not converge:\n%s", rep)
	}
}

func TestBPCRuns(t *testing.T) {
	rep, err := Run("bpc", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	if strings.Contains(out, "NaN") {
		t.Errorf("bpc produced NaN:\n%s", out)
	}
	if !strings.Contains(out, "1.208") {
		t.Errorf("bpc missing paper reference:\n%s", out)
	}
}

func TestFig5Runs(t *testing.T) {
	rep, err := Run("fig5", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) == 0 || strings.Contains(rep.String(), "NaN") {
		t.Errorf("fig5 malformed:\n%s", rep)
	}
}

// TestV100ComparisonConstant pins the §V-D infrastructure ratio the bpc
// experiment's notes rely on.
func TestV100ComparisonConstant(t *testing.T) {
	v := perfmodel.V100()
	x := perfmodel.TitanX()
	cluster21 := 128 * v.PeakFLOPS / 1e15 // 16 PFLOP/s
	ours := 64 * x.PeakFLOPS / 1e15       // 0.39 PFLOP/s
	if cluster21 < 15.5 || cluster21 > 16.5 {
		t.Errorf("[21] cluster = %.1f PFLOP/s, paper says 16", cluster21)
	}
	if ratio := cluster21 / ours; ratio < 39 || ratio > 43 {
		t.Errorf("infrastructure ratio %.0f×, paper says 41×", ratio)
	}
}

// TestAblationsRun smoke-tests the table-only ablation harnesses and their
// key structural claims.
func TestAblationsRun(t *testing.T) {
	fp16, err := Run("abl-fp16", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(fp16.String(), "WARNING") {
		t.Errorf("abl-fp16 monotonicity broken:\n%s", fp16)
	}

	seed, err := Run("abl-seed", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(seed.String(), "Zipf's-freq") {
		t.Errorf("abl-seed missing strategies:\n%s", seed)
	}
}

// TestServingExperiment is the serving smoke: the closed-loop Zipf load
// must produce cache hits and shed nothing in the cached configuration —
// the experiment flags violations of either invariant with a WARNING note,
// so a clean run means the caching layer works and admission control never
// dropped a closed-loop request.
func TestServingExperiment(t *testing.T) {
	rep, err := Run("serving", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 || len(rep.Tables[0].Rows()) != 3 {
		t.Fatalf("serving report malformed:\n%s", rep)
	}
	// The quant/spec table carries the four decode legs; the trained draft
	// must achieve nonzero acceptance (a zero rate raises a WARNING note).
	if rows := rep.Tables[1].Rows(); len(rows) != 4 {
		t.Fatalf("quant/spec table has %d rows, want 4:\n%s", len(rows), rep)
	}
	for _, n := range rep.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("serving invariant violated: %s", n)
		}
	}
	var sawFit bool
	for _, n := range rep.Notes {
		if strings.Contains(n, "power law") {
			sawFit = true
		}
	}
	if !sawFit {
		t.Error("serving report missing the power-law load fit")
	}
}

// TestTiebaHeroRunFits: the §V-C hero configuration (192 GPUs, 15,437-char
// vocabulary, sampled softmax with seeding) must fit the 12 GiB budget
// under the unique exchange — the run the baseline could never attempt.
func TestTiebaHeroRunFits(t *testing.T) {
	w := tiebaLM()
	hw := w.hardware()
	for _, g := range []int{6, 24, 192} {
		mem := peakMemory(w, g, stackCompressed, 42)
		if mem > hw.MemBytes {
			t.Errorf("tieba ours at %d GPUs needs %d bytes, exceeding the 12 GiB budget", g, mem)
		}
	}
	// The baseline ALLGATHER at 192 GPUs would need Θ(G·K·D) ≈ 26 GB of
	// gather scratch alone — impossible on any Table II GPU.
	base := peakMemory(w, 192, stackBaseline, 42)
	if base <= hw.MemBytes {
		t.Errorf("baseline at 192 GPUs implausibly fits: %d bytes", base)
	}
}
