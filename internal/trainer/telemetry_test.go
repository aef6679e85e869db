package trainer

import (
	"bytes"
	"io"
	"testing"
	"time"

	"zipflm/internal/core"
	"zipflm/internal/perfmodel"
	"zipflm/internal/telemetry"
	"zipflm/internal/traceview"
)

// TestTelemetryBitIdentity: the same run with telemetry, tracing, and the
// flight recorder on must produce bit-identical weights and losses to the
// uninstrumented run — observation never perturbs computation.
func TestTelemetryBitIdentity(t *testing.T) {
	train, valid := smallData(60, 8000, 1)
	run := func(reg *telemetry.Registry, tr *telemetry.Tracer, fl *telemetry.Flight) (Result, *Trainer) {
		cfg := smallConfig(2, core.UniqueExchange{})
		cfg.Telemetry = reg
		cfg.Trace = tr
		cfg.Flight = fl
		// In-memory checkpoints every few steps so the flight recorder has
		// something to log; identical in both legs, so bit-identity still
		// proves observation changed nothing.
		cfg.CheckpointEvery = 5
		trn, err := New(cfg, train, valid)
		if err != nil {
			t.Fatal(err)
		}
		res, err := trn.Run(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res, trn
	}

	plainRes, plainTr := run(nil, nil, nil)
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	flight := telemetry.NewFlight(64)
	flight.SetSink(io.Discard)
	obsRes, obsTr := run(reg, tracer, flight)

	if plainRes.FinalLoss != obsRes.FinalLoss {
		t.Fatalf("final loss diverged: %v (off) != %v (on)", plainRes.FinalLoss, obsRes.FinalLoss)
	}
	a, b := plainTr.Model(0), obsTr.Model(0)
	pa, pb := a.DenseParams(), b.DenseParams()
	for i := range pa {
		for j := range pa[i].Value {
			if pa[i].Value[j] != pb[i].Value[j] {
				t.Fatalf("weight %s[%d] diverged with telemetry on", pa[i].Name, j)
			}
		}
	}

	// And the instruments actually observed the run.
	steps := reg.Counter("zipflm_train_steps_total").Value()
	if steps != int64(obsRes.Stats.Steps) {
		t.Fatalf("steps counter %d != result steps %d", steps, obsRes.Stats.Steps)
	}
	if got := reg.Duration("zipflm_train_compute_seconds").Count(); got != steps {
		t.Fatalf("compute histogram has %d observations, want %d", got, steps)
	}
	arName := telemetry.Label(telemetry.Label("zipflm_collective_calls_total", "op", "allreduce"), "wire", "fp32")
	if reg.Counter(arName).Value() == 0 {
		t.Fatal("communicator telemetry not attached: no all-reduce calls recorded")
	}
	if tracer.Len() == 0 {
		t.Fatal("tracer recorded no spans")
	}
	if flight.Recorded() == 0 {
		t.Fatal("flight recorder saw no events (checkpoints should log)")
	}
}

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

// TestObservatoryBitIdentity: the same run with metrics-history sampling
// running concurrently must produce bit-identical weights and losses to the
// uninstrumented run — the performance observatory extends the
// observation-never-perturbs contract.
func TestObservatoryBitIdentity(t *testing.T) {
	train, valid := smallData(60, 8000, 1)
	run := func(observed bool) (Result, *Trainer, *telemetry.History) {
		cfg := smallConfig(2, core.UniqueExchange{})
		var hist *telemetry.History
		if observed {
			cfg.Telemetry = telemetry.NewRegistry()
			sim := cfg.Telemetry.Gauge("zipflm_train_sim_seconds")
			hist = telemetry.NewHistory(cfg.Telemetry, telemetry.HistoryConfig{
				Capacity: 64,
				Interval: time.Millisecond,
				VClock:   sim.Value,
			})
			defer hist.Start()()
		}
		trn, err := New(cfg, train, valid)
		if err != nil {
			t.Fatal(err)
		}
		res, err := trn.Run(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res, trn, hist
	}

	plainRes, plainTr, _ := run(false)
	obsRes, obsTr, hist := run(true)

	if plainRes.FinalLoss != obsRes.FinalLoss {
		t.Fatalf("final loss diverged: %v (off) != %v (on)", plainRes.FinalLoss, obsRes.FinalLoss)
	}
	pa, pb := plainTr.Model(0).DenseParams(), obsTr.Model(0).DenseParams()
	for i := range pa {
		for j := range pa[i].Value {
			if pa[i].Value[j] != pb[i].Value[j] {
				t.Fatalf("weight %s[%d] diverged with the observatory on", pa[i].Name, j)
			}
		}
	}

	// The history saw the run: its final sample carries the step counter.
	samples := hist.Samples()
	if len(samples) == 0 {
		t.Fatal("history sampled nothing")
	}
	last := samples[len(samples)-1]
	if last.Counters["zipflm_train_steps_total"] != int64(obsRes.Stats.Steps) {
		t.Fatalf("final history sample steps=%d, want %d",
			last.Counters["zipflm_train_steps_total"], obsRes.Stats.Steps)
	}
}
