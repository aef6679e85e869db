package trainer

import (
	"time"

	"zipflm/internal/telemetry"
)

// trainerTelemetry is the trainer's instrument set, resolved once in New so
// the per-step cost is a few atomic operations. nil (telemetry off) keeps
// every step on the exact uninstrumented path.
type trainerTelemetry struct {
	tokens     *telemetry.Counter   // zipflm_train_tokens_total (global)
	faults     *telemetry.Counter   // zipflm_train_faults_total
	lostSteps  *telemetry.Counter   // zipflm_train_lost_steps_total
	computeDur *telemetry.Histogram // zipflm_train_compute_seconds
	syncDur    *telemetry.Histogram // zipflm_train_sync_seconds
	goodput    *telemetry.Gauge     // zipflm_train_goodput_ratio
	simClock   *telemetry.Gauge     // zipflm_train_sim_seconds
}

func newTrainerTelemetry(reg *telemetry.Registry) *trainerTelemetry {
	if reg == nil {
		return nil
	}
	return &trainerTelemetry{
		tokens:     reg.Counter("zipflm_train_tokens_total"),
		faults:     reg.Counter("zipflm_train_faults_total"),
		lostSteps:  reg.Counter("zipflm_train_lost_steps_total"),
		computeDur: reg.Duration("zipflm_train_compute_seconds"),
		syncDur:    reg.Duration("zipflm_train_sync_seconds"),
		goodput:    reg.Gauge("zipflm_train_goodput_ratio"),
		simClock:   reg.Gauge("zipflm_train_sim_seconds"),
	}
}

// observeStep posts one executed step's phase breakdown to the registry and
// the tracer. Called for every executed step — including steps later lost
// to a rollback — so summing the trace's per-phase virtual durations
// reproduces StepStats.SimComputeSeconds / SimSyncSeconds exactly (Run
// accumulates the same float64 values in the same order).
func (t *Trainer) observeStep(computeStart, syncStart time.Time, agg stepStats) {
	if tel := t.tel; tel != nil {
		tel.tokens.Add(int64(t.cfg.Ranks) * int64(t.cfg.BatchPerRank) * int64(t.cfg.SeqLen))
		tel.computeDur.Observe(agg.computeTime)
		tel.syncDur.Observe(agg.syncTime)
		tel.simClock.Set(t.clock.Now())
		tel.goodput.Set(t.goodputRatio())
	}
	if tr := t.cfg.Trace; tr != nil {
		tr.Span("train", "compute", 0, computeStart, agg.computeTime, agg.simStart, agg.simCompute)
		tr.Span("train", "sync", 0, syncStart, agg.syncTime, agg.simAfterCompute, agg.simSync)
	}
}

// goodputRatio is the fraction of executed steps that stayed committed:
// 1 − lost/(committed + lost). 1.0 before any step or without faults.
func (t *Trainer) goodputRatio() float64 {
	executed := t.step + t.ftStats.LostSteps
	if executed <= 0 {
		return 1
	}
	return float64(t.step) / float64(executed)
}
