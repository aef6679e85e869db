package telemetry

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Flight is a structured flight recorder: a bounded lock-free ring of
// pre-rendered log/slog JSON lines that costs nothing until an anomaly
// asks for it. Subsystems log structured events into the ring as they run
// (fault rollbacks, sheds, reloads); the ring keeps only the last N, and a
// trigger event — a fault, an overload storm, SIGQUIT — dumps the whole
// ring to the sink, so every anomaly ships the black-box context that
// preceded it without the cost or volume of always-on logging.
//
// Recording is wait-free for writers: one atomic counter claims a slot,
// one atomic pointer store publishes the rendered line. Readers (Dump)
// snapshot the slots and order by sequence number. A nil *Flight ignores
// everything — the recorder-off switch, same contract as the rest of the
// package.
type Flight struct {
	slots []atomic.Pointer[flightEntry]
	next  atomic.Uint64

	sinkMu sync.Mutex
	sink   io.Writer

	lastTrigger atomic.Int64 // unix nanos of the last accepted trigger
	minGap      int64        // nanos between accepted triggers
}

// flightEntry is one recorded line plus its claim sequence.
type flightEntry struct {
	seq  uint64
	line []byte
}

// DefaultFlightEvents is the ring capacity when NewFlight is given none.
const DefaultFlightEvents = 256

// NewFlight returns a recorder holding the last capacity events
// (DefaultFlightEvents when <= 0), dumping to stderr until SetSink.
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	return &Flight{
		slots:  make([]atomic.Pointer[flightEntry], capacity),
		sink:   os.Stderr,
		minGap: int64(time.Second),
	}
}

// startFlight is Start's entry to the recorder: a Flight of the given
// capacity armed to dump on SIGQUIT, and the func that disarms it.
// capacity <= 0 is recording off — a nil Flight and a no-op stop.
func startFlight(capacity int) (f *Flight, stop func()) {
	if capacity <= 0 {
		return nil, func() {}
	}
	f = NewFlight(capacity)
	return f, f.ArmSIGQUIT()
}

// SetSink redirects trigger dumps (default os.Stderr). nil disables dumps
// while recording continues.
func (f *Flight) SetSink(w io.Writer) {
	if f == nil {
		return
	}
	f.sinkMu.Lock()
	f.sink = w
	f.sinkMu.Unlock()
}

// Record logs one structured event into the ring: a message plus slog
// key/value pairs, rendered to a JSON line immediately so the ring holds
// finished bytes. Intended for anomaly-path events (rollback, shed,
// reload), not per-step logging.
func (f *Flight) Record(level slog.Level, msg string, args ...any) {
	if f == nil {
		return
	}
	r := slog.NewRecord(time.Now(), level, msg, 0)
	r.Add(args...)
	var buf bytes.Buffer
	if err := slog.NewJSONHandler(&buf, nil).Handle(context.Background(), r); err != nil {
		return
	}
	f.publish(buf.Bytes())
}

// publish claims the next slot and stores the line.
func (f *Flight) publish(line []byte) {
	e := &flightEntry{line: append([]byte(nil), line...)}
	e.seq = f.next.Add(1) - 1
	f.slots[e.seq%uint64(len(f.slots))].Store(e)
}

// Len returns how many events the ring currently holds.
func (f *Flight) Len() int {
	if f == nil {
		return 0
	}
	n := 0
	for i := range f.slots {
		if f.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

// Recorded returns the total number of events ever recorded (including
// those the ring has since overwritten).
func (f *Flight) Recorded() int64 {
	if f == nil {
		return 0
	}
	return int64(f.next.Load())
}

// Dump writes the ring's events to w in record order (oldest first) and
// returns how many lines it wrote. The ring is not cleared: a later
// trigger re-dumps the same context plus whatever followed.
func (f *Flight) Dump(w io.Writer) int {
	if f == nil || w == nil {
		return 0
	}
	entries := make([]*flightEntry, 0, len(f.slots))
	for i := range f.slots {
		if e := f.slots[i].Load(); e != nil {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq < entries[j].seq })
	n := 0
	for _, e := range entries {
		if _, err := w.Write(e.line); err != nil {
			break
		}
		n++
	}
	return n
}

// Trigger dumps the ring to the sink, prefixed with a one-line header
// naming the reason. Triggers are rate-limited (at most one per second)
// so a shed storm that triggers per-request cannot flood the sink; the
// ring itself keeps recording regardless.
func (f *Flight) Trigger(reason string) {
	if f == nil {
		return
	}
	now := time.Now().UnixNano()
	for {
		last := f.lastTrigger.Load()
		if now-last < f.minGap {
			return
		}
		if f.lastTrigger.CompareAndSwap(last, now) {
			break
		}
	}
	f.sinkMu.Lock()
	defer f.sinkMu.Unlock()
	if f.sink == nil {
		return
	}
	var hdr bytes.Buffer
	r := slog.NewRecord(time.Now(), slog.LevelWarn, "flight-recorder dump", 0)
	r.Add("reason", reason, "events", f.Len(), "recorded", f.Recorded())
	if err := slog.NewJSONHandler(&hdr, nil).Handle(context.Background(), r); err == nil {
		f.sink.Write(hdr.Bytes())
	}
	f.Dump(f.sink)
}

// ArmSIGQUIT dumps the ring when the process receives SIGQUIT (the
// conventional "tell me what you were doing" signal), returning a cancel
// function that detaches the handler. The signal is not consumed
// exclusively: Go's default SIGQUIT stack dump still fires for unhandled
// cases only if no Notify is registered, so daemons arming this keep
// running after the dump.
func (f *Flight) ArmSIGQUIT() (cancel func()) {
	if f == nil {
		return func() {}
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
				f.Trigger("SIGQUIT")
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
