package telemetry

import (
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func readManifest(t *testing.T, dir string) []ProfileEntry {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	var entries []ProfileEntry
	if err := json.Unmarshal(buf, &entries); err != nil {
		t.Fatalf("manifest not decodable: %v", err)
	}
	return entries
}

func TestProfilerPhaseCaptures(t *testing.T) {
	dir := t.TempDir()
	p, err := NewProfiler(ProfilerConfig{Dir: dir, Heap: true})
	if err != nil {
		t.Fatal(err)
	}
	stop := p.StartPhase("weakscale")
	// Burn a little CPU so the profile has samples to write.
	x := 0.0
	for i := 0; i < 1_000_000; i++ {
		x += float64(i) * 1.0000001
	}
	_ = x
	stop()
	p.Stop()

	entries := readManifest(t, dir)
	if len(entries) != 2 {
		t.Fatalf("manifest has %d entries, want 2 (cpu + heap): %+v", len(entries), entries)
	}
	kinds := map[string]bool{}
	for _, e := range entries {
		kinds[e.Kind] = true
		if e.Label != "weakscale" {
			t.Errorf("entry label %q, want weakscale", e.Label)
		}
		fi, err := os.Stat(filepath.Join(dir, e.File))
		if err != nil {
			t.Errorf("indexed file missing: %v", err)
		} else if fi.Size() == 0 {
			t.Errorf("profile %s is empty", e.File)
		}
	}
	if !kinds["cpu"] || !kinds["heap"] {
		t.Fatalf("manifest kinds = %v, want cpu and heap", kinds)
	}
	if m := p.Manifest(); len(m) != 2 {
		t.Fatalf("Manifest() = %d entries, want 2", len(m))
	}
}

func TestProfilerSchedule(t *testing.T) {
	dir := t.TempDir()
	p, err := NewProfiler(ProfilerConfig{
		Dir:         dir,
		Interval:    5 * time.Millisecond,
		CPUDuration: 5 * time.Millisecond,
		Heap:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	time.Sleep(60 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent

	entries := readManifest(t, dir)
	var cpus, heaps int
	for _, e := range entries {
		switch e.Kind {
		case "cpu":
			cpus++
			if e.DurationS <= 0 {
				t.Errorf("cpu capture with zero duration: %+v", e)
			}
		case "heap":
			heaps++
		}
		if e.Label != "scheduled" {
			t.Errorf("scheduled entry label %q", e.Label)
		}
	}
	if cpus == 0 || heaps == 0 {
		t.Fatalf("schedule captured %d cpu / %d heap profiles, want at least one each", cpus, heaps)
	}
}

// TestProfilerCPUExclusion: a second CPU capture while one runs is
// skipped, not fatal, and indexes nothing.
func TestProfilerCPUExclusion(t *testing.T) {
	dir := t.TempDir()
	p, err := NewProfiler(ProfilerConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	stop1 := p.StartCPU("outer")
	stop2 := p.StartCPU("inner") // must be skipped
	stop2()
	stop1()
	p.Stop()

	entries := readManifest(t, dir)
	if len(entries) != 1 || entries[0].Label != "outer" {
		t.Fatalf("manifest = %+v, want exactly the outer capture", entries)
	}
}

func TestProfilerNilSafe(t *testing.T) {
	var p *Profiler
	p.Start()
	p.StartCPU("x")()
	p.StartPhase("y")()
	if _, err := p.CaptureHeap("z"); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	if p.Manifest() != nil {
		t.Fatal("nil Profiler not inert")
	}
	if _, err := NewProfiler(ProfilerConfig{}); err == nil {
		t.Fatal("NewProfiler without a directory must error")
	}
}

// TestStartFlightAndProfiler: the two command-line entries hand back nil
// observers and no-op stops when switched off, and working ones otherwise —
// the profiler's stop leaves the manifest behind.
func TestStartFlightAndProfiler(t *testing.T) {
	f, stop := StartFlight(0)
	if f != nil {
		t.Fatal("StartFlight(0) must be recording off")
	}
	stop()
	f, stop = StartFlight(4)
	f.SetSink(nil)
	f.Record(slog.LevelInfo, "armed")
	if f.Len() != 1 {
		t.Fatalf("armed flight holds %d events, want 1", f.Len())
	}
	stop()

	p, stop, err := StartProfiler("test", "", time.Hour)
	if p != nil || err != nil {
		t.Fatalf("StartProfiler without a directory = %v, %v; want profiling off", p, err)
	}
	stop()
	dir := t.TempDir()
	p, stop, err = StartProfiler("test", dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.StartPhase("phase")()
	stop()
	if entries := readManifest(t, dir); len(entries) != 2 { // cpu + heap
		t.Fatalf("manifest = %+v, want the phase's cpu and heap captures", entries)
	}
	if _, _, err := StartProfiler("test", filepath.Join(dir, ManifestName, "x"), 0); err == nil {
		t.Fatal("a directory that cannot be created must be an error")
	}
}
