package trainer

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"zipflm/internal/core"
	"zipflm/internal/corpus"
	"zipflm/internal/model"
	"zipflm/internal/perfmodel"
	"zipflm/internal/sampling"
	"zipflm/internal/telemetry"
	"zipflm/internal/traceview"
)

// simConfig builds a small distributed run with the virtual clock threaded
// through it.
func simConfig(hw *perfmodel.Hardware) (Config, []int, []int) {
	gen := corpus.NewGenerator(corpus.GeneratorConfig{
		VocabSize:    499,
		ZipfExponent: 1.1,
		Seed:         3,
	})
	stream := gen.Stream(9000)
	train, valid := corpus.Split(stream, 20, 100, 3)
	cfg := Config{
		Model:           model.Config{Vocab: 500, Dim: 16, Hidden: 24, RNN: model.KindLSTM, Sampled: 32},
		Ranks:           4,
		BatchPerRank:    2,
		SeqLen:          8,
		LR:              0.1,
		Exchange:        core.UniqueExchange{},
		SeedStrategy:    sampling.ZipfFreq,
		BaseSeed:        3,
		Hardware:        hw,
		SimFLOPsPerStep: 1e9,
		SimAchievedFrac: 0.4,
	}
	return cfg, train, valid
}

// TestSimulatedStepTime: with Config.Hardware set, a run reports a positive
// compute/sync virtual-time split, the trainer's clock equals their sum,
// and the prediction is bit-reproducible across identical runs.
func TestSimulatedStepTime(t *testing.T) {
	hw := perfmodel.TitanX()
	run := func() (Result, float64) {
		cfg, train, valid := simConfig(&hw)
		tr, err := New(cfg, train, valid)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tr.Run(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.ReplicasInSync(); err != nil {
			t.Fatal(err)
		}
		return res, tr.SimSeconds()
	}
	res, total := run()
	if res.Stats.SimComputeSeconds <= 0 {
		t.Errorf("SimComputeSeconds = %v, want > 0", res.Stats.SimComputeSeconds)
	}
	if res.Stats.SimSyncSeconds <= 0 {
		t.Errorf("SimSyncSeconds = %v, want > 0", res.Stats.SimSyncSeconds)
	}
	sum := res.Stats.SimComputeSeconds + res.Stats.SimSyncSeconds
	if diff := total - sum; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("trainer clock %v != compute %v + sync %v",
			total, res.Stats.SimComputeSeconds, res.Stats.SimSyncSeconds)
	}
	// The compute charge is exact: steps × FLOPs ÷ (peak × frac).
	wantCompute := float64(res.Stats.Steps) * hw.ComputeSeconds(1e9, 0.4)
	if diff := res.Stats.SimComputeSeconds - wantCompute; diff < -1e-9 || diff > 1e-9 {
		t.Errorf("SimComputeSeconds = %v, want %v", res.Stats.SimComputeSeconds, wantCompute)
	}

	res2, total2 := run()
	if total != total2 ||
		res.Stats.SimComputeSeconds != res2.Stats.SimComputeSeconds ||
		res.Stats.SimSyncSeconds != res2.Stats.SimSyncSeconds {
		t.Errorf("virtual time not reproducible: (%v, %v, %v) vs (%v, %v, %v)",
			total, res.Stats.SimComputeSeconds, res.Stats.SimSyncSeconds,
			total2, res2.Stats.SimComputeSeconds, res2.Stats.SimSyncSeconds)
	}
}

// TestOverlapPricedOnVirtualClock is the contract that replaced the
// Hardware+Overlap rejection: overlapped dense reductions are priced on
// a lane clock of their own, as a timeline beside compute and the sparse
// exchange rather than on top of them.
func TestOverlapPricedOnVirtualClock(t *testing.T) {
	hw := perfmodel.TitanX()
	for _, sampled := range []int{32, 0} {
		t.Run(fmt.Sprintf("sampled%d", sampled), func(t *testing.T) {
			run := func(overlap bool) (*Trainer, Result, *telemetry.Tracer) {
				cfg, train, valid := simConfig(&hw)
				cfg.Model.Sampled = sampled
				cfg.Overlap = overlap
				cfg.Trace = telemetry.NewTracer(0)
				tr, err := New(cfg, train, valid)
				if err != nil {
					t.Fatal(err)
				}
				res, err := tr.Run(1, 1)
				if err != nil {
					t.Fatal(err)
				}
				if err := tr.ReplicasInSync(); err != nil {
					t.Fatal(err)
				}
				return tr, res, cfg.Trace
			}
			// firstCompute is step 0's compute envelope on the virtual clock.
			firstCompute := func(tr *telemetry.Tracer) float64 {
				for _, e := range tr.Events() {
					if e.Cat == "train" && e.Name == "compute" {
						return e.VDur
					}
				}
				return 0
			}
			syncTr, syncRes, syncTrace := run(false)
			ovTr, ovRes, ovTrace := run(true)
			ranks := ovTr.cfg.Ranks

			// Pricing never touches arithmetic or accounting.
			if modelDigest(syncTr.Model(0)) != modelDigest(ovTr.Model(0)) {
				t.Fatal("overlap moved the weights")
			}
			for r := 0; r < ranks; r++ {
				if ss, os := syncTr.Comm().RankStats(r), ovTr.Comm().RankStats(r); ss != os {
					t.Fatalf("rank %d wire stats diverge:\n sync    %+v\n overlap %+v", r, ss, os)
				}
			}

			// Compute: the staged charge ends where the lump charge ends. From
			// equal clocks (a first step) that is bitwise; over a run the two
			// modes' clocks differ by then, and end−start rounds in its last
			// bit depending on where on the clock the step sits.
			if s0, o0 := firstCompute(syncTrace), firstCompute(ovTrace); s0 != o0 || o0 <= 0 {
				t.Errorf("first-step compute seconds: overlap %v, sync %v (must be bitwise equal and positive)", o0, s0)
			}
			if d := math.Abs(ovRes.Stats.SimComputeSeconds - syncRes.Stats.SimComputeSeconds); d > 1e-12*syncRes.Stats.SimComputeSeconds {
				t.Errorf("SimComputeSeconds: overlap %v vs sync %v", ovRes.Stats.SimComputeSeconds, syncRes.Stats.SimComputeSeconds)
			}

			// Sync: no less than the sparse exchange and update alone, no
			// more than the synchronous run, and strictly below it here
			// because the overlapped reductions have something to hide
			// behind. On tid 0, a step's first len(units.layers) all-reduce
			// spans (one more under the full softmax) are the overlapped
			// reductions; its other collective spans and its update span
			// are the exchange and update. Priced on the lane clock, the
			// first starts when backprop finished its layer, before the
			// step's compute ends.
			perStep := len(ovTr.units.layers)
			if sampled == 0 {
				perStep++
			}
			var exchangeOnly, laneSeconds, computeEnd float64
			var inStep, laneCalls int
			for _, e := range ovTrace.Events() {
				switch {
				case e.Cat == "rank" && e.Name == "compute" && e.Tid == 0:
					inStep, computeEnd = 0, e.VTS+e.VDur
				case e.Cat == "collective" && e.Name == "allreduce" && e.Tid == 0 && inStep < perStep:
					if inStep == 0 && e.VTS >= computeEnd {
						t.Fatalf("a step's first overlapped reduction starts at %v s, not before its compute ends at %v s", e.VTS, computeEnd)
					}
					inStep++
					laneCalls++
					laneSeconds += e.VDur
				case e.Cat == "collective" && e.Tid == 0, e.Cat == "train" && e.Name == "update":
					exchangeOnly += e.VDur
				case e.Cat == "collective":
					t.Fatalf("collective span on track %d: want tid 0", e.Tid)
				}
			}
			if laneCalls != perStep*ovRes.Stats.Steps {
				t.Fatalf("%d overlapped all-reduce spans on rank 0, want %d per step × %d steps", laneCalls, perStep, ovRes.Stats.Steps)
			}
			if exchangeOnly <= 0 || laneSeconds <= 0 {
				t.Fatalf("exchange-only %v s, overlapped reductions %v s: both must be priced", exchangeOnly, laneSeconds)
			}
			ovSync, syncSync := ovRes.Stats.SimSyncSeconds, syncRes.Stats.SimSyncSeconds
			if !(exchangeOnly <= ovSync*(1+1e-12) && ovSync < syncSync) {
				t.Errorf("want exchange-only %v ≤ SimSyncSeconds(overlap) %v < SimSyncSeconds(sync) %v",
					exchangeOnly, ovSync, syncSync)
			}
			if sum := ovRes.Stats.SimComputeSeconds + ovSync; math.Abs(ovTr.SimSeconds()-sum) > 1e-9 {
				t.Errorf("trainer clock %v != compute + sync %v", ovTr.SimSeconds(), sum)
			}

			// Deterministic regardless of scheduling: a rerun and a
			// different GOMAXPROCS give bitwise-equal clocks.
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				tr2, res2, _ := run(true)
				runtime.GOMAXPROCS(prev)
				if tr2.SimSeconds() != ovTr.SimSeconds() ||
					res2.Stats.SimComputeSeconds != ovRes.Stats.SimComputeSeconds ||
					res2.Stats.SimSyncSeconds != ovSync {
					t.Errorf("GOMAXPROCS=%d: virtual time not reproducible: (%v, %v, %v) vs (%v, %v, %v)", procs,
						tr2.SimSeconds(), res2.Stats.SimComputeSeconds, res2.Stats.SimSyncSeconds,
						ovTr.SimSeconds(), ovRes.Stats.SimComputeSeconds, ovSync)
				}
			}

			// The trace reconciles through a file exactly as in sync mode.
			var buf bytes.Buffer
			if err := ovTrace.WriteChromeTrace(&buf); err != nil {
				t.Fatal(err)
			}
			parsed, err := traceview.Parse(&buf)
			if err != nil {
				t.Fatal(err)
			}
			a := traceview.Analyze(parsed)
			if a.TotalCompute != ovRes.Stats.SimComputeSeconds || a.TotalSync != ovSync {
				t.Errorf("analyzer (%v, %v) != StepStats (%v, %v) (must be bitwise equal)",
					a.TotalCompute, a.TotalSync, ovRes.Stats.SimComputeSeconds, ovSync)
			}
			if a.Truncated || len(a.Steps) != ovRes.Stats.Steps {
				t.Errorf("analyzer: truncated=%v, %d steps, trainer ran %d", a.Truncated, len(a.Steps), ovRes.Stats.Steps)
			}
		})
	}
}

// TestTraceOneTimeline: phase 2 runs once for every rank, so the trace
// records it once — the exchange, the update and every collective are one
// span on tid 0 — and only phase 1's compute, whose G passes the pool's
// workers really run apart, has a span per rank. So a step's complete spans, minus G, do not
// depend on G.
func TestTraceOneTimeline(t *testing.T) {
	hw := perfmodel.TitanX()
	const steps = 3
	for _, overlap := range []bool{false, true} {
		want := -1
		for _, g := range []int{1, 2, 4} {
			cfg, train, valid := simConfig(&hw)
			cfg.Ranks, cfg.Overlap = g, overlap
			tracer := telemetry.NewTracer(0)
			cfg.Trace = tracer
			tr, err := New(cfg, train, valid)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Steps(steps); err != nil {
				t.Fatal(err)
			}
			spans := 0
			for _, e := range tracer.Events() {
				if e.Phase != 'X' {
					continue
				}
				spans++
				if e.Tid != 0 && !(e.Cat == "rank" && e.Name == "compute") {
					t.Errorf("overlap=%v G=%d: %s/%s on tid %d, want tid 0", overlap, g, e.Cat, e.Name, e.Tid)
				}
			}
			if spans%steps != 0 {
				t.Fatalf("overlap=%v G=%d: %d complete spans over %d steps", overlap, g, spans, steps)
			}
			perStep := spans/steps - g
			t.Logf("overlap=%v G=%d: %d complete spans per step, %d besides the per-rank compute spans", overlap, g, spans/steps, perStep)
			if want < 0 {
				want = perStep
			} else if perStep != want {
				t.Errorf("overlap=%v G=%d: %d spans per step besides the per-rank compute spans, want %d as at G=1", overlap, g, perStep, want)
			}
		}
	}
}

// TestOverlapReattachesDeviceCost: the overlapped reductions borrow the
// communicator for the lane clock's model only while they run; between steps
// the device clock's model is attached, so every other collective prices on
// the device clock. Without Overlap there is no lane model at all, and the
// lane clock stays at zero.
func TestOverlapReattachesDeviceCost(t *testing.T) {
	hw := perfmodel.TitanX()
	for _, overlap := range []bool{false, true} {
		t.Run(fmt.Sprintf("overlap=%v", overlap), func(t *testing.T) {
			cfg, train, valid := simConfig(&hw)
			cfg.Overlap = overlap
			tr, err := New(cfg, train, valid)
			if err != nil {
				t.Fatal(err)
			}
			if (tr.laneCost != nil) != overlap {
				t.Fatalf("lane model %v with Overlap %v", tr.laneCost, overlap)
			}
			for step := 0; step <= 2; step++ {
				if step > 0 {
					if err := tr.Steps(1); err != nil {
						t.Fatal(err)
					}
				}
				if got := tr.Comm().Cost(); got == nil || got != tr.deviceCost {
					t.Fatalf("after %d steps the communicator prices on %p, want the device clock's model %p", step, got, tr.deviceCost)
				}
			}
			if got := tr.lane.Now(); (got > 0) != overlap {
				t.Errorf("lane clock at %v with Overlap %v: only the overlapped reductions are priced on it", got, overlap)
			}
		})
	}
}

// TestSimOffLeavesZeroes: the default configuration must not touch the
// virtual clock (pay-for-what-you-use).
func TestSimOffLeavesZeroes(t *testing.T) {
	cfg, train, valid := simConfig(nil)
	cfg.SimFLOPsPerStep = 0
	tr, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SimComputeSeconds != 0 || res.Stats.SimSyncSeconds != 0 || tr.SimSeconds() != 0 {
		t.Errorf("clock moved without Hardware: compute %v sync %v total %v",
			res.Stats.SimComputeSeconds, res.Stats.SimSyncSeconds, tr.SimSeconds())
	}
	if tr.Comm().Cost() != nil {
		t.Error("cost model attached without Hardware")
	}
}
