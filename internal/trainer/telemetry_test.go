package trainer

import (
	"bytes"
	"math"
	"testing"

	"zipflm/internal/ckpt"
	"zipflm/internal/core"
	"zipflm/internal/perfmodel"
	"zipflm/internal/sampling"
	"zipflm/internal/telemetry"
	"zipflm/internal/traceview"
)

// TestTraceVirtualDurationsSumToStepStats: the acceptance contract — the
// trace's per-phase virtual durations, summed in record order, reproduce
// the trainer's SimComputeSeconds / SimSyncSeconds bitwise (Run accumulates
// the identical float64 values in the identical order).
func TestTraceVirtualDurationsSumToStepStats(t *testing.T) {
	hw := perfmodel.TitanX()
	cfg, train, valid := simConfig(&hw)
	tracer := telemetry.NewTracer(0)
	cfg.Trace = tracer
	cfg.Telemetry = telemetry.NewRegistry()
	trn, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trn.Run(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SimComputeSeconds <= 0 || res.Stats.SimSyncSeconds <= 0 {
		t.Fatalf("expected positive virtual phase times, got %v/%v",
			res.Stats.SimComputeSeconds, res.Stats.SimSyncSeconds)
	}

	// Sum the step (cat "train") spans only: phase 1's per-rank spans reuse
	// the name "compute" under cat "rank" and would double-count.
	var vCompute, vSync float64
	for _, e := range tracer.Events() {
		if e.Cat != "train" {
			continue
		}
		switch e.Name {
		case "compute":
			vCompute += e.VDur
		case "sync":
			vSync += e.VDur
		}
	}
	if vCompute != res.Stats.SimComputeSeconds {
		t.Errorf("trace compute vdur sum %v != SimComputeSeconds %v (must be bitwise equal)",
			vCompute, res.Stats.SimComputeSeconds)
	}
	if vSync != res.Stats.SimSyncSeconds {
		t.Errorf("trace sync vdur sum %v != SimSyncSeconds %v (must be bitwise equal)",
			vSync, res.Stats.SimSyncSeconds)
	}
}

// TestTraceviewReconcilesThroughFile: the full acceptance pipeline — run a
// priced training job, write the Chrome trace to JSON, parse and analyze it
// with traceview, and require the analyzer's critical-path totals to equal
// the trainer's own SimComputeSeconds / SimSyncSeconds bitwise.
// encoding/json round-trips float64 exactly, and Analyze sums the aggregate
// spans in record order (a single tid-0 stream, so record order is step
// order) — the same order Run accumulated them in.
func TestTraceviewReconcilesThroughFile(t *testing.T) {
	hw := perfmodel.TitanX()
	cfg, train, valid := simConfig(&hw)
	tracer := telemetry.NewTracer(0)
	cfg.Trace = tracer
	trn, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := trn.Run(1, 1)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	tr, err := traceview.Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	a := traceview.Analyze(tr)

	if a.TotalCompute != res.Stats.SimComputeSeconds {
		t.Errorf("analyzer compute %v != SimComputeSeconds %v (must be bitwise equal)",
			a.TotalCompute, res.Stats.SimComputeSeconds)
	}
	if a.TotalSync != res.Stats.SimSyncSeconds {
		t.Errorf("analyzer sync %v != SimSyncSeconds %v (must be bitwise equal)",
			a.TotalSync, res.Stats.SimSyncSeconds)
	}
	if len(a.Steps) != res.Stats.Steps {
		t.Errorf("analyzer found %d steps, trainer ran %d", len(a.Steps), res.Stats.Steps)
	}
	for i, st := range a.Steps {
		if st.Wire <= 0 {
			t.Fatalf("step %d has wire time %v, want > 0 (exchange span missing?)", i, st.Wire)
		}
	}

	// Determinism of the analysis itself: analyzing the same trace twice
	// (fresh parse each time) yields identical attribution.
	tr2, err := traceview.Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	b := traceview.Analyze(tr2)
	if b.TotalCompute != a.TotalCompute || b.TotalSync != a.TotalSync || len(b.Steps) != len(a.Steps) {
		t.Fatal("re-analysis of the same trace diverged")
	}
	for i := range a.Steps {
		if a.Steps[i].Wire != b.Steps[i].Wire || a.Steps[i].Update != b.Steps[i].Update {
			t.Fatalf("step %d attribution diverged between identical analyses", i)
		}
	}
}

// faultyObservedRun trains 20 steps with on-disk checkpoints every 5 steps
// and two rank failures inside the horizon, observed by a registry and a
// tracer.
func faultyObservedRun(t *testing.T) (*Trainer, *telemetry.Registry, *telemetry.Tracer) {
	t.Helper()
	train, valid := smallData(60, 1600, 11)
	hw := perfmodel.TitanX()
	cfg := smallConfig(2, core.UniqueExchange{})
	cfg.Model.Sampled = 10
	cfg.SeedStrategy = sampling.ZipfFreq
	cfg.Hardware = &hw
	cfg.SimFLOPsPerStep = 1e9
	cfg.SimAchievedFrac = 0.4

	clean, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := clean.Steps(20); err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointEvery = 5
	cfg.CheckpointDir = t.TempDir()
	cfg.SimCheckpointSeconds = 0.0002
	cfg.SimRestartSeconds = 0.0005
	cfg.Faults = ckpt.NewFaultPlan([]ckpt.Fault{
		{Time: clean.SimSeconds() * 0.35, Rank: 1},
		{Time: clean.SimSeconds() * 0.70, Rank: 0},
	})
	reg, tracer := telemetry.NewRegistry(), telemetry.NewTracer(0)
	cfg.Telemetry, cfg.Trace = reg, tracer
	tr, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Steps(20); err != nil {
		t.Fatal(err)
	}
	return tr, reg, tracer
}

// TestCheckpointSpans: the trace holds one train/checkpoint span per
// checkpoint captured, each lasting the modeled write barrier on the
// virtual clock — the span is where checkpoint cost is read.
func TestCheckpointSpans(t *testing.T) {
	tr, _, tracer := faultyObservedRun(t)
	fs := tr.FaultStats()
	var spans int
	for _, e := range tracer.Events() {
		if e.Cat != "train" || e.Name != "checkpoint" {
			continue
		}
		spans++
		if math.Abs(e.VDur-0.0002) > 1e-12 {
			t.Errorf("checkpoint span lasts virtual %v, want the 0.0002 s barrier", e.VDur)
		}
	}
	if spans == 0 || spans != fs.Checkpoints {
		t.Fatalf("%d checkpoint spans, want one per checkpoint (%d)", spans, fs.Checkpoints)
	}
}

// TestFailureCountersMatchFaultStats: the failure counters publish exactly
// what FaultStats accounts, and the same fault plan replayed in a fresh
// trainer loses the same steps and ends at the same virtual second.
func TestFailureCountersMatchFaultStats(t *testing.T) {
	tr, reg, _ := faultyObservedRun(t)
	fs := tr.FaultStats()
	if fs.Faults != 2 || fs.LostSteps <= 0 {
		t.Fatalf("fault stats %+v, want 2 faults that lost steps", fs)
	}
	if again, _, _ := faultyObservedRun(t); again.FaultStats() != fs || again.SimSeconds() != tr.SimSeconds() {
		t.Errorf("the replayed plan: %+v at %v virtual seconds, the first run %+v at %v",
			again.FaultStats(), again.SimSeconds(), fs, tr.SimSeconds())
	}
	if got := reg.Counter("zipflm_train_faults_total").Value(); got != int64(fs.Faults) {
		t.Errorf("zipflm_train_faults_total = %d, want %d", got, fs.Faults)
	}
	if got := reg.Counter("zipflm_train_lost_steps_total").Value(); got != int64(fs.LostSteps) {
		t.Errorf("zipflm_train_lost_steps_total = %d, want %d", got, fs.LostSteps)
	}
}
