package telemetry

import (
	"bytes"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// goroutines returns the stacks of every live goroutine but the caller,
// keyed by their "goroutine N [" header. The os/signal watcher is left
// out: the first signal.Notify starts it, and it runs until exit.
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	out := map[string]string{}
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i == 0 || strings.Contains(g, "os/signal.signal_recv") || strings.Contains(g, "os/signal.loop") {
			continue
		}
		id, _, _ := strings.Cut(g, "[")
		out[id] = g
	}
	return out
}

// TestObserversStopLeavesNothing starts every observer — the listener with
// a request served, the flight recorder armed for
// SIGQUIT, the tracer — then stops them twice from one goroutine and twice
// from two at once: nothing panics, the trace is written once, and every
// goroutine Start made is gone.
func TestObserversStopLeavesNothing(t *testing.T) {
	before := goroutines()
	trace := filepath.Join(t.TempDir(), "trace.json")
	obs, err := Start("observe-test", Options{
		Trace: trace, Flight: 8, MetricsAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Registry == nil || obs.Tracer == nil || obs.Flight == nil {
		t.Fatalf("an observer did not start: %+v", obs)
	}
	obs.Tracer.Instant("t", "mark", 0, obs.Tracer.Start(), 0)
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for _, path := range []string{"/metrics", "/debug/pprof/"} {
		resp, err := client.Get("http://" + obs.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	if err := obs.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := obs.Stop(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := obs.Stop(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if raw, err := os.ReadFile(trace); err != nil || !bytes.Contains(raw, []byte(`"mark"`)) {
		t.Errorf("trace not written: %v %s", err, raw)
	}
	if _, err := client.Get("http://" + obs.Addr() + "/metrics"); err == nil {
		t.Error("listener still answers after Stop")
	}

	// Connection goroutines wind down just after the listener closes.
	var leaked []string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		leaked = leaked[:0]
		for id, g := range goroutines() {
			if _, ok := before[id]; !ok {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(leaked) > 0 {
		t.Fatalf("%d goroutines outlived Stop:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// TestObserversOffByDefault: zero Options start nothing — no registry, no
// tracer, no flight, no listener — and Stop is a no-op.
func TestObserversOffByDefault(t *testing.T) {
	obs, err := Start("observe-test", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Registry != nil || obs.Tracer != nil || obs.Flight != nil || obs.Addr() != "" {
		t.Fatalf("zero Options started an observer: %+v", obs)
	}
	if err := obs.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterFlags: the batch form declares only -trace and -flight; the
// listener form adds -metrics-addr; defaults come from the
// Options and parsing fills them in.
func TestRegisterFlags(t *testing.T) {
	names := func(fs *flag.FlagSet) (out []string) {
		fs.VisitAll(func(f *flag.Flag) { out = append(out, f.Name) })
		return out
	}
	var batch Options
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	batch.RegisterFlags(fs, false)
	if got := strings.Join(names(fs), " "); got != "flight trace" {
		t.Errorf("batch flags: %s", got)
	}

	long := Options{Flight: DefaultFlightEvents}
	fs = flag.NewFlagSet("long", flag.ContinueOnError)
	long.RegisterFlags(fs, true)
	if got := strings.Join(names(fs), " "); got != "flight metrics-addr trace" {
		t.Errorf("listener flags: %s", got)
	}
	if err := fs.Parse([]string{"-metrics-addr", ":0", "-flight", "7"}); err != nil {
		t.Fatal(err)
	}
	if long.MetricsAddr != ":0" || long.Flight != 7 {
		t.Errorf("parsed options: %+v", long)
	}
}

// TestStartFlight: capacity 0 is recording off (a nil Flight and a no-op
// stop); a positive capacity records, and its stop disarms SIGQUIT.
func TestStartFlight(t *testing.T) {
	f, stop := startFlight(0)
	if f != nil {
		t.Fatal("startFlight(0) must be recording off")
	}
	stop()
	f, stop = startFlight(4)
	f.SetSink(nil)
	f.Record(slog.LevelInfo, "armed")
	if f.Len() != 1 {
		t.Fatalf("armed flight holds %d events, want 1", f.Len())
	}
	stop()
}

// TestStartListenerError: a -metrics-addr that cannot be bound is Start's
// error, named after the flag, and starts nothing.
func TestStartListenerError(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	obs, err := Start("observe-test", Options{MetricsAddr: lis.Addr().String()})
	if err == nil {
		obs.Stop()
		t.Fatal("Start on a bound address must fail")
	}
	if obs != nil || !strings.Contains(err.Error(), "-metrics-addr") {
		t.Fatalf("Start = %v, %v; want nil and a -metrics-addr error", obs, err)
	}
}

// TestObserversHandleServesMetricsOnly: Handle registers the registry's
// /metrics endpoint and nothing under it — there is no
// metrics history to serve.
func TestObserversHandleServesMetricsOnly(t *testing.T) {
	obs, err := Start("observe-test", Options{Exported: true})
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Stop()
	obs.Registry.Counter("zipflm_handled_total").Inc()
	mux := http.NewServeMux()
	obs.Handle(mux)
	for path, want := range map[string]struct {
		code int
		body string
	}{
		"/metrics":         {http.StatusOK, "zipflm_handled_total 1\n"},
		"/metrics/history": {http.StatusNotFound, ""},
	} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != want.code || !strings.Contains(rec.Body.String(), want.body) {
			t.Errorf("GET %s: status %d, want %d with %q in:\n%s", path, rec.Code, want.code, want.body, rec.Body.String())
		}
	}
}
