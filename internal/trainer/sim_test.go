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
	if res.Stats.SimStepSeconds() <= 0 {
		t.Errorf("SimStepSeconds = %v, want > 0", res.Stats.SimStepSeconds())
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
// Hardware+Overlap rejection: overlapped dense reductions are priced on the
// side lane's own clocks, as a timeline beside compute and the sparse
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
			requireIdenticalModels(t, "overlap+hardware", syncTr.Model(0), ovTr.Model(0))
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

			// Sync: no less than the sparse exchange and update alone (what
			// rank 0's primary lane and update spans add up to), no more than
			// the synchronous run, and strictly below it here because the
			// side lane has something to hide behind.
			var exchangeOnly, laneSeconds float64
			for _, e := range ovTrace.Events() {
				switch {
				case e.Cat == "collective" && e.Tid == 0, e.Cat == "rank" && e.Name == "update" && e.Tid == 0:
					exchangeOnly += e.VDur
				case e.Cat == "collective" && e.Tid == ranks:
					laneSeconds += e.VDur
				case e.Cat == "collective" && (e.Tid < 0 || e.Tid >= 2*ranks):
					t.Fatalf("collective span on track %d: want rank (primary) or Ranks+rank (side)", e.Tid)
				}
			}
			if exchangeOnly <= 0 || laneSeconds <= 0 {
				t.Fatalf("exchange-only %v s, side lane %v s: both lanes must be priced", exchangeOnly, laneSeconds)
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
