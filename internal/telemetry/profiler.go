package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// This file is the continuous-profiling hook: a Profiler captures CPU and
// heap pprof profiles on a schedule and at explicit phase boundaries
// (experiments.Options.Profile marks each experiment as a phase), writing
// timestamped .pprof files into one directory with a JSON index manifest
// so a run's profiles are navigable without guessing at filenames.
// Profiling is observational: it changes nothing about what the code
// computes, only samples where the time and memory went — the bit-identity
// suites run with it enabled.

// ProfilerConfig tunes a Profiler.
type ProfilerConfig struct {
	// Dir receives the profile files and the manifest (created if needed).
	Dir string
	// Interval is the background capture period for Start (0 disables the
	// schedule; explicit captures still work).
	Interval time.Duration
	// CPUDuration is how long each scheduled CPU capture samples
	// (DefaultCPUProfileDuration when 0). Explicit phase captures span
	// their whole phase instead.
	CPUDuration time.Duration
	// Heap, when true, adds a heap profile to every scheduled capture and
	// phase boundary.
	Heap bool
}

// DefaultCPUProfileDuration bounds a scheduled CPU capture.
const DefaultCPUProfileDuration = 2 * time.Second

// ManifestName is the index file written into the profile directory.
const ManifestName = "profiles.json"

// ProfileEntry is one captured profile in the manifest.
type ProfileEntry struct {
	// File is the profile's filename within the directory.
	File string `json:"file"`
	// Kind is "cpu" or "heap".
	Kind string `json:"kind"`
	// Label names what was profiled: "scheduled", a phase name, or a
	// caller-chosen tag.
	Label string `json:"label"`
	// Start is the capture start; DurationS how long a CPU capture
	// sampled (0 for heap snapshots).
	Start     time.Time `json:"start"`
	DurationS float64   `json:"duration_s"`
}

// Profiler captures pprof profiles into a directory. Create with
// NewProfiler; all methods are safe for concurrent use and nil-receiver
// safe (the profiling-off switch). Only one CPU profile can run per
// process — overlapping CPU captures (including an outside
// pprof.StartCPUProfile) are skipped, never fatal.
type Profiler struct {
	cfg ProfilerConfig

	mu      sync.Mutex
	seq     int
	entries []ProfileEntry
	cpuBusy bool

	startOnce sync.Once
	stopOnce  sync.Once
	scheduled bool
	done      chan struct{}
	finished  chan struct{}
}

// NewProfiler returns a profiler writing into cfg.Dir, creating the
// directory if needed.
func NewProfiler(cfg ProfilerConfig) (*Profiler, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("telemetry: profiler needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = DefaultCPUProfileDuration
	}
	return &Profiler{cfg: cfg, done: make(chan struct{}), finished: make(chan struct{})}, nil
}

// StartProfiler is the command-line entry to the profiler: CPU+heap
// captures into dir, on schedule when every > 0 and at StartPhase
// boundaries either way, announced on stderr under the program's name.
// stop ends the schedule, writes the manifest and reports how many
// profiles the run left. An empty dir is profiling off — a nil Profiler
// and a no-op stop.
func StartProfiler(prog, dir string, every time.Duration) (p *Profiler, stop func(), err error) {
	if dir == "" {
		return nil, func() {}, nil
	}
	p, err = NewProfiler(ProfilerConfig{Dir: dir, Interval: every, Heap: true})
	if err != nil {
		return nil, nil, err
	}
	p.Start()
	if every > 0 {
		fmt.Fprintf(os.Stderr, "%s: profiling to %s every %s\n", prog, dir, every)
	}
	return p, func() {
		p.Stop()
		fmt.Fprintf(os.Stderr, "%s: wrote %d profile(s) to %s\n", prog, len(p.Manifest()), dir)
	}, nil
}

// filename builds a collision-free profile name: kind, label (sanitized),
// unix-nano timestamp, and a per-profiler sequence number.
func (p *Profiler) filename(kind, label string, at time.Time) string {
	clean := make([]byte, 0, len(label))
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			clean = append(clean, c)
		default:
			clean = append(clean, '_')
		}
	}
	p.seq++
	return fmt.Sprintf("%s_%s_%d_%04d.pprof", kind, clean, at.UnixNano(), p.seq)
}

// record appends a manifest entry and rewrites the manifest file, so the
// index is valid after every capture (a crashed run keeps its profiles
// indexed).
func (p *Profiler) record(e ProfileEntry) {
	p.entries = append(p.entries, e)
	p.writeManifestLocked()
}

func (p *Profiler) writeManifestLocked() {
	entries := p.entries
	if entries == nil {
		entries = []ProfileEntry{} // a capture-free run still leaves a valid (empty) index
	}
	buf, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	tmp := filepath.Join(p.cfg.Dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return
	}
	os.Rename(tmp, filepath.Join(p.cfg.Dir, ManifestName))
}

// CaptureHeap writes a heap profile (after a GC, so live objects are
// accurate) and returns its path.
func (p *Profiler) CaptureHeap(label string) (string, error) {
	if p == nil {
		return "", nil
	}
	now := time.Now()
	p.mu.Lock()
	name := p.filename("heap", label, now)
	p.mu.Unlock()
	path := filepath.Join(p.cfg.Dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	runtime.GC()
	err = pprof.Lookup("heap").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return "", err
	}
	p.mu.Lock()
	p.record(ProfileEntry{File: name, Kind: "heap", Label: label, Start: now})
	p.mu.Unlock()
	return path, nil
}

// StartCPU begins a CPU capture and returns a stop function that ends it
// and indexes the file. When another CPU profile is already running (this
// profiler's or the process's), the capture is skipped and stop is a
// no-op — scheduled and phase captures may overlap freely.
func (p *Profiler) StartCPU(label string) (stop func()) {
	if p == nil {
		return func() {}
	}
	now := time.Now()
	p.mu.Lock()
	if p.cpuBusy {
		p.mu.Unlock()
		return func() {}
	}
	p.cpuBusy = true
	name := p.filename("cpu", label, now)
	p.mu.Unlock()

	path := filepath.Join(p.cfg.Dir, name)
	f, err := os.Create(path)
	if err == nil {
		if serr := pprof.StartCPUProfile(f); serr != nil {
			// Someone outside this profiler is profiling; back off.
			f.Close()
			os.Remove(path)
			err = serr
		}
	}
	if err != nil {
		p.mu.Lock()
		p.cpuBusy = false
		p.mu.Unlock()
		return func() {}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			pprof.StopCPUProfile()
			f.Close()
			p.mu.Lock()
			p.cpuBusy = false
			p.record(ProfileEntry{File: name, Kind: "cpu", Label: label,
				Start: now, DurationS: time.Since(now).Seconds()})
			p.mu.Unlock()
		})
	}
}

// StartPhase marks a phase boundary (an experiment, an epoch): a CPU
// capture spans the phase, and with Heap configured a heap profile lands
// at the phase's end. The returned function closes the phase.
func (p *Profiler) StartPhase(label string) (stop func()) {
	if p == nil {
		return func() {}
	}
	stopCPU := p.StartCPU(label)
	return func() {
		stopCPU()
		if p.cfg.Heap {
			p.CaptureHeap(label)
		}
	}
}

// Start launches the background schedule: every Interval, a CPUDuration
// CPU capture plus (with Heap) a heap profile, labelled "scheduled".
// Returns immediately; Stop ends the schedule. Without an Interval this
// is a no-op.
func (p *Profiler) Start() {
	if p == nil || p.cfg.Interval <= 0 {
		return
	}
	p.startOnce.Do(func() {
		p.mu.Lock()
		p.scheduled = true
		p.mu.Unlock()
		go func() {
			defer close(p.finished)
			t := time.NewTicker(p.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-p.done:
					return
				case <-t.C:
					stop := p.StartCPU("scheduled")
					select {
					case <-p.done:
						stop()
						return
					case <-time.After(p.cfg.CPUDuration):
					}
					stop()
					if p.cfg.Heap {
						p.CaptureHeap("scheduled")
					}
				}
			}
		}()
	})
}

// Stop ends the background schedule (if any) and rewrites the manifest a
// final time. Safe to call without Start and more than once.
func (p *Profiler) Stop() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() { close(p.done) })
	p.mu.Lock()
	wait := p.scheduled
	p.mu.Unlock()
	if wait {
		<-p.finished
	}
	p.mu.Lock()
	p.writeManifestLocked()
	p.mu.Unlock()
}

// Manifest returns the indexed captures so far, in capture order.
func (p *Profiler) Manifest() []ProfileEntry {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := append([]ProfileEntry(nil), p.entries...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}
