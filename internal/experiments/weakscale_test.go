package experiments

import (
	"strings"
	"testing"

	"zipflm/internal/sampling"
)

// quickWeakWorkload mirrors runWeakScale's Quick miniature for direct
// runWeakStep assertions.
func quickWeakWorkload() scalingWorkload {
	w := wordLM()
	w.K = 64
	w.D = 32
	w.Vocab = 2000
	w.Samples = 32
	w.DenseParams = 100_000
	w.FLOPsPerStep = 1e9
	return w
}

// TestWeakScaleExperiment smoke-runs the registered experiment in quick
// mode and checks the report's structural invariants.
func TestWeakScaleExperiment(t *testing.T) {
	rep := quickReport(t, "weakscale")
	out := rep.String()
	if strings.Contains(out, "WARNING") {
		t.Errorf("weakscale flagged a problem:\n%s", out)
	}
	if !strings.Contains(out, "deterministic") {
		t.Errorf("missing determinism note:\n%s", out)
	}
	for _, col := range []string{"comm [ms]", "update [ms]", "epoch [hrs]", "unique+seed+fp16", "baseline-allgather"} {
		if !strings.Contains(out, col) {
			t.Errorf("report missing %q:\n%s", col, out)
		}
	}
}

// TestWeakStepQualitativeStory asserts the paper's claims on the online
// miniature: the baseline's synchronization (comm + update) grows much
// faster with G than the unique engine's, the unique engine's wire volume
// is smaller, and predicted times are bit-reproducible.
func TestWeakStepQualitativeStory(t *testing.T) {
	w := quickWeakWorkload()
	const g0, g1 = 2, 8

	syncSec := func(r weakRun) float64 { return r.commSec + r.updateSec }

	runs := map[string]map[int]weakRun{"baseline": {}, "unique": {}}
	for _, g := range []int{g0, g1} {
		for name, baseline := range map[string]bool{"baseline": true, "unique": false} {
			r, err := runWeakStep(w, g, baseline, true, 42)
			if err != nil {
				t.Fatalf("%s at G=%d: %v", name, g, err)
			}
			if r.oom {
				t.Fatalf("%s at G=%d: unexpected OOM with unlimited memory", name, g)
			}
			if r.stepSec <= 0 || syncSec(r) <= 0 {
				t.Fatalf("%s at G=%d: non-positive times %+v", name, g, r)
			}
			runs[name][g] = r
		}
	}

	// At miniature payloads the hop latency α dominates growth *rates*
	// for both engines (the paper-scale bandwidth/update-bound growth
	// separation is the full experiment's assertion); what must hold at
	// any scale is the absolute separation: the baseline synchronizes
	// slower, moves more bytes, and its locked scatter-add update dwarfs
	// the unique engine's conflict-free one.
	for _, g := range []int{g0, g1} {
		if syncSec(runs["baseline"][g]) <= syncSec(runs["unique"][g]) {
			t.Errorf("at G=%d baseline sync %.3gs must exceed unique sync %.3gs",
				g, syncSec(runs["baseline"][g]), syncSec(runs["unique"][g]))
		}
		if runs["unique"][g].sparseWire >= runs["baseline"][g].sparseWire {
			t.Errorf("at G=%d unique wire %d must undercut baseline wire %d",
				g, runs["unique"][g].sparseWire, runs["baseline"][g].sparseWire)
		}
	}
	if b, u := runs["baseline"][g1].updateSec, runs["unique"][g1].updateSec; b < 10*u {
		t.Errorf("baseline locked update %.3gs must dwarf unique conflict-free update %.3gs at G=%d",
			b, u, g1)
	}

	// Determinism: same seed, same predicted decomposition, bit for bit.
	again, err := runWeakStep(w, g1, false, true, 42)
	if err != nil {
		t.Fatal(err)
	}
	r := runs["unique"][g1]
	if again.stepSec != r.stepSec || again.commSec != r.commSec ||
		again.updateSec != r.updateSec || again.ugIn != r.ugIn {
		t.Errorf("predicted step not reproducible: %+v vs %+v", again, r)
	}

	// Different seed must still run (and generally lands elsewhere).
	if _, err := runWeakStep(w, g1, false, true, 43); err != nil {
		t.Fatal(err)
	}
}

// TestWeakStepSeesTheClosedFormStep ties the online sweep to the
// closed-form tables: at every quick weakscale G, each engine's exchanges
// report the global unique counts measuredUnique counts on the same draws
// under that engine's seeding strategy.
func TestWeakStepSeesTheClosedFormStep(t *testing.T) {
	w := quickWeakWorkload()
	for _, g := range []int{2, 4, 8} {
		for baseline, strat := range map[bool]sampling.Strategy{true: sampling.AllDifferent, false: sampling.ZipfFreq} {
			run, err := runWeakStep(w, g, baseline, true, 42)
			if err != nil {
				t.Fatal(err)
			}
			_, ugIn, _, ugOut := measuredUnique(w, g, strat, 42)
			if run.ugIn != ugIn || run.ugOut != ugOut {
				t.Errorf("G=%d baseline=%v: online U_g (%d, %d), closed form (%d, %d)",
					g, baseline, run.ugIn, run.ugOut, ugIn, ugOut)
			}
		}
	}
}

// TestWeakScaleAnchorCalibration runs the paper-scale anchor configuration
// (8-GPU word LM, unique+seed+fp16) online and demands the predicted epoch
// hours sit on Table III's 14.6 h calibration — the check the full
// experiment reports as a note, promoted to a hard test so a LinkCost or
// Hardware constant drift cannot pass the suite silently. G=8 keeps it to
// ~a second; the big-G sweep stays in the experiment itself.
func TestWeakScaleAnchorCalibration(t *testing.T) {
	w := wordLM()
	const anchor = 8
	run, err := runWeakStep(w, anchor, false, false, 42)
	if err != nil {
		t.Fatal(err)
	}
	if run.oom {
		t.Fatal("unique exchange must fit at 8 GPUs")
	}
	stepsPerEpoch := float64(w.TokensPerEpoch) / float64(int64(anchor)*int64(w.K))
	hours := stepsPerEpoch * run.stepSec / 3600
	if hours < 14.6*0.85 || hours > 14.6*1.15 {
		t.Errorf("online 8-GPU prediction %.2f h off the Table III 14.6 h calibration (step %.4f s)",
			hours, run.stepSec)
	}
}

// TestWeakStepOOMWall: with a device budget between the two engines'
// scratch needs, the baseline must abort on memory at a scale the unique
// engine sails through — the Tables III/IV "*" wall, reproduced by the live
// accountant rather than a closed-form check. Miniature sizes keep it
// test-fast; the wall's paper-scale position is the full experiment's job.
func TestWeakStepOOMWall(t *testing.T) {
	const g = 8
	w := quickWeakWorkload()
	w.Samples = 0 // single exchange keeps the scratch arithmetic simple
	// Budget between baseline Θ(G·K·D) and unique Θ(G·K + U_g·D) at G=8,
	// expressed through the calibrated memory fields runWeakStep derives
	// device capacity from: capacity = memBytes − base (staging 1).
	budget := int64(g*w.K) * int64(w.D*4+4) * 3 / 4
	memBytes := w.hardware().MemBytes
	w.BaselineStaging = 1
	w.BaseMemory = memBytes - budget
	w.BaseMemoryOurs = memBytes - budget

	base, err := runWeakStep(w, g, true, false, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !base.oom {
		t.Errorf("baseline must hit the %d-byte scratch wall at G=%d", budget, g)
	}
	uniq, err := runWeakStep(w, g, false, false, 42)
	if err != nil {
		t.Fatal(err)
	}
	if uniq.oom {
		t.Errorf("unique exchange must fit in the %d-byte budget at G=%d", budget, g)
	}
	if uniq.stepSec <= 0 {
		t.Errorf("unique run reported no time: %+v", uniq)
	}
}
