package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"zipflm/internal/telemetry"
)

// span is one interval on the traced run's timeline. The harness records one
// around every call it makes into the program; the program's own tracer
// events are imported afterwards as children of the harness span that
// contains them. Times are nanoseconds since the recorder's epoch.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = none
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"` // step or request number; spans of one op share it
	Tid      int    `json:"tid"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; nothing is written until the run is over.
// A nil recorder records nothing, which is the untraced run.
type recorder struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// add records a completed harness span and returns its id.
func (r *recorder) add(name string, op int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Name: name, Workload: r.workload, Op: op,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
	return id
}

// named returns the harness spans with the given name, ordered by start.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name && s.Parent == 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// event is a program tracer event moved onto the recorder's timeline.
type event struct {
	cat, name  string
	tid        int
	start, end int64
}

// events returns the tracer's complete spans on the recorder's timeline, in
// record order. The program's tracer is read back only after timing is over.
func (r *recorder) events(tr *telemetry.Tracer) []event {
	offset := int64(tr.Start().Sub(r.epoch))
	var out []event
	for _, e := range tr.Events() {
		if e.Phase != 'X' {
			continue
		}
		start := offset + int64(e.TS)
		out = append(out, event{cat: e.Cat, name: e.Name, tid: e.Tid, start: start, end: start + int64(e.Dur)})
	}
	return out
}

// addChild records a program event as a child of a harness span.
func (r *recorder) addChild(parent span, e event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent.ID, Name: e.cat + "/" + e.name,
		Workload: r.workload, Op: parent.Op, Tid: e.tid, Start: e.start, End: e.end,
	})
}

// containing returns the index of the span that contains [start, end], or -1.
// parents are sorted by start and do not overlap (steps run one at a time).
func containing(parents []span, start, end int64) int {
	i := sort.Search(len(parents), func(i int) bool { return parents[i].Start > start }) - 1
	if i < 0 || parents[i].End < end {
		return -1
	}
	return i
}

// traceFile is what write puts on disk.
type traceFile struct {
	Host  hostStamp `json:"host"`
	Seed  uint64    `json:"seed"`
	Spans []span    `json:"spans"`
}

// write stores the spans as benchmark/out/trace_<workload>.json. It runs
// after every measurement is finished.
func (r *recorder) write(dir string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+r.workload+".json")
	r.mu.Lock()
	data, err := json.Marshal(traceFile{Host: stamp(), Seed: seed, Spans: r.spans})
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
