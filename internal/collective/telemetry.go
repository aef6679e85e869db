package collective

import (
	"time"

	"zipflm/internal/telemetry"
)

// AttachTrace wires the communicator's collectives into a span tracer:
// every operation emits one span for the whole group (cat "collective",
// tid 0) whose virtual-clock duration is the operation's charge, read from
// the clock of the cost model attached when the operation ran (zero
// without AttachCost). nil detaches. Tracing only observes — reduced
// values, Stats accounting and virtual-clock charges are bit-identical
// with or without it.
func (c *Comm) AttachTrace(tr *telemetry.Tracer) {
	c.trace = tr
}

// clockNow reads the cost model's virtual clock (0 without one).
func (c *Comm) clockNow() float64 {
	if c.cost == nil {
		return 0
	}
	return c.cost.Clock.Now()
}

// opStartRanks samples, when a tracer observes the communicator, the wall
// clock and the virtual clock at the start of a call made for every rank.
func (c *Comm) opStartRanks() (t0 time.Time, v0 float64) {
	if c.trace != nil {
		t0, v0 = time.Now(), c.clockNow()
	}
	return t0, v0
}

// opEnd posts one completed operation as one trace span on tid 0.
func (c *Comm) opEnd(op string, t0 time.Time, v0 float64) {
	if c.trace != nil {
		c.trace.Span("collective", op, 0, t0, time.Since(t0), v0, c.clockNow()-v0)
	}
}
