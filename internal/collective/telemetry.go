package collective

import (
	"sync"
	"time"

	"zipflm/internal/telemetry"
)

// WireNamer is optionally implemented by Wire formats to identify
// themselves in telemetry labels (half.Scaler reports "fp16"). Formats
// without it label as "custom".
type WireNamer interface {
	WireName() string
}

// wireLabel resolves the telemetry label for a wire format.
func wireLabel(w Wire) string {
	if w == nil {
		return "fp32"
	}
	if n, ok := w.(WireNamer); ok {
		return n.WireName()
	}
	return "custom"
}

// opInst is the instrument set of one (operation, wire) pair, resolved once
// and cached so the per-call cost is a map lookup, never a name build.
type opInst struct {
	calls *telemetry.Counter
	bytes *telemetry.Counter
	dur   *telemetry.Histogram
}

type opKey struct{ op, wire string }

// commTelemetry holds the communicator's registry hookup. A nil
// *commTelemetry (telemetry off) makes every record a single branch.
type commTelemetry struct {
	reg *telemetry.Registry
	mu  sync.Mutex
	ops map[opKey]*opInst
}

// AttachTelemetry wires the communicator's collectives into reg: per
// operation and wire format, a call counter, a wire-byte counter, and a
// wall-duration histogram (zipflm_collective_calls_total / _bytes_total /
// _seconds, labelled op= and wire=). Counters tally per rank, like Stats;
// the histogram gets one observation per operation.
// Attach before the first collective; a nil reg detaches. Telemetry only
// observes — reduced values, Stats accounting, and virtual-clock charges
// are bit-identical with or without it.
func (c *Comm) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		c.tel = nil
		return
	}
	c.tel = &commTelemetry{reg: reg, ops: make(map[opKey]*opInst)}
}

// AttachTrace wires the communicator's collectives into a span tracer:
// every operation emits one span for the whole group (cat "collective",
// tid 0) whose virtual-clock duration is the operation's charge, read from
// the clock of the cost model attached when the operation ran (zero
// without AttachCost). nil detaches. Purely observational, like
// AttachTelemetry.
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

// opStartRanks samples, when telemetry or a tracer observes the
// communicator, the wall clock and the virtual clock at the start of a call
// made for every rank.
func (c *Comm) opStartRanks() (t0 time.Time, v0 float64) {
	if c.tel != nil || c.trace != nil {
		t0, v0 = time.Now(), c.clockNow()
	}
	return t0, v0
}

// opEnd posts one completed operation — calls logical calls, summed over
// the ranks, moving bytes over the wire in the format label names — to
// telemetry and as one trace span on tid 0.
func (c *Comm) opEnd(op, label string, calls, bytes int64, t0 time.Time, v0 float64) {
	if c.tel != nil {
		c.tel.record(op, label, calls, bytes, int64(time.Since(t0)))
	}
	if c.trace != nil {
		c.trace.Span("collective", op, 0, t0, time.Since(t0), v0, c.clockNow()-v0)
	}
}

// inst returns the cached instrument set for (op, wire).
func (ct *commTelemetry) inst(op, wire string) *opInst {
	k := opKey{op, wire}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	oi, ok := ct.ops[k]
	if !ok {
		label := func(base string) string {
			return telemetry.Label(telemetry.Label(base, "op", op), "wire", wire)
		}
		oi = &opInst{
			calls: ct.reg.Counter(label("zipflm_collective_calls_total")),
			bytes: ct.reg.Counter(label("zipflm_collective_bytes_total")),
			dur:   ct.reg.Duration(label("zipflm_collective_seconds")),
		}
		ct.ops[k] = oi
	}
	return oi
}

// record posts one completed operation: calls per-rank calls moving bytes
// over the wire in dur nanoseconds of wall time.
func (ct *commTelemetry) record(op, wire string, calls, bytes, durNanos int64) {
	if ct == nil {
		return
	}
	oi := ct.inst(op, wire)
	oi.calls.Add(calls)
	oi.bytes.Add(bytes)
	oi.dur.Record(durNanos)
}
