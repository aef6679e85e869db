package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Duration("h")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// All record/read paths must be no-ops, never panics.
	c.Add(3)
	c.Inc()
	g.Set(1.5)
	g.SetInt(2)
	h.Record(10)
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	r.OnCollect(func() { t.Fatal("collector must not run on nil registry") })
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WritePrometheus: %v", err)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestRegistrySharesInstruments(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Fatal("same name must return the same counter")
	}
	if r.Gauge("y") != r.Gauge("y") {
		t.Fatal("same name must return the same gauge")
	}
	if r.Histogram("z", "s", 1e-9) != r.Duration("z") {
		t.Fatal("same name must return the same histogram")
	}
}

func TestLabel(t *testing.T) {
	if got := Label("m", "wire", "fp16"); got != `m{wire="fp16"}` {
		t.Fatalf("Label = %q", got)
	}
	if got := Label(Label("m", "a", "1"), "b", "2"); got != `m{a="1",b="2"}` {
		t.Fatalf("composed Label = %q", got)
	}
	fam, labels := splitName(`m{a="1",b="2"}`)
	if fam != "m" || labels != `a="1",b="2"` {
		t.Fatalf("splitName = %q, %q", fam, labels)
	}
	fam, labels = splitName("plain")
	if fam != "plain" || labels != "" {
		t.Fatalf("splitName plain = %q, %q", fam, labels)
	}
}

// promLine matches a valid Prometheus text-format sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$`)

func buildTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("zipflm_requests_total").Add(7)
	r.Counter(Label("zipflm_bytes_total", "wire", "fp16")).Add(1024)
	r.Counter(Label("zipflm_bytes_total", "wire", "q8")).Add(256)
	r.Gauge("zipflm_queue_depth").SetInt(3)
	h := r.Duration("zipflm_latency_seconds")
	h.Record(int64(5 * time.Millisecond))
	h.Record(int64(20 * time.Millisecond))
	return r
}

func TestWritePrometheusFormat(t *testing.T) {
	r := buildTestRegistry()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	typeLines := 0
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typeLines++
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid sample line: %q", line)
		}
	}
	// Families: requests_total, bytes_total (once, despite two labelled
	// series), queue_depth, latency_seconds.
	if typeLines != 4 {
		t.Errorf("got %d TYPE lines, want 4 (one per family):\n%s", typeLines, text)
	}
	if strings.Count(text, "# TYPE zipflm_bytes_total counter") != 1 {
		t.Errorf("labelled family must emit exactly one TYPE line:\n%s", text)
	}
	for _, want := range []string{
		"zipflm_requests_total 7\n",
		`zipflm_bytes_total{wire="fp16"} 1024` + "\n",
		`zipflm_bytes_total{wire="q8"} 256` + "\n",
		"zipflm_queue_depth 3\n",
		`zipflm_latency_seconds_bucket{le="+Inf"} 2` + "\n",
		"zipflm_latency_seconds_count 2\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// Histogram sum is exported in seconds.
	if !strings.Contains(text, "zipflm_latency_seconds_sum 0.025\n") {
		t.Errorf("histogram sum must be scaled to seconds:\n%s", text)
	}
	// Cumulative bucket counts never decrease.
	var last int64 = -1
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "zipflm_latency_seconds_bucket") {
			continue
		}
		n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if n < last {
			t.Errorf("bucket counts not cumulative: %q after %d", line, last)
		}
		last = n
	}
}

// TestExpositionCountsAboveThreshold: a latency objective is evaluated by
// the scraper from the cumulative buckets alone. The observations at or
// above a target are the +Inf count minus the count at the largest le not
// above the target. The answer is exact where the target is a bucket
// bound; a bucket that straddles the target counts whole as above, so a
// scraper never undercounts the bad events.
func TestExpositionCountsAboveThreshold(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("zipflm_wait", "", 1)
	obs := []int64{0, 1, 5, 10, 31, 100, 1000}
	for _, v := range obs {
		h.Record(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	total, good := int64(-1), map[float64]int64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, `zipflm_wait_bucket{le="`)
		if !ok {
			continue
		}
		le, n, _ := strings.Cut(rest, `"} `)
		cum, err := strconv.ParseInt(n, 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if le == "+Inf" {
			total = cum
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		good[bound] = cum
	}
	if total != int64(len(obs)) {
		t.Fatalf(`le="+Inf" = %d, want %d:\n%s`, total, len(obs), buf.String())
	}
	above := func(target float64) int64 {
		var best float64 = -1
		for le := range good {
			if le <= target && le > best {
				best = le
			}
		}
		if best < 0 {
			return total
		}
		return total - good[best]
	}

	for _, c := range []struct {
		target float64
		want   int64
	}{
		{0, 7},    // everything
		{1, 6},    // all but the 0
		{11, 3},   // 31, 100, 1000 (11 is an exact unit bucket bound)
		{33, 2},   // 100, 1000: 31's bucket [31, 32) ends below the target
		{101, 2},  // 100 shares the log bucket [100, 102) and counts as above
		{2000, 0}, // above everything
	} {
		t.Run(fmt.Sprintf("target=%g", c.target), func(t *testing.T) {
			got := above(c.target)
			if got != c.want {
				t.Errorf("above %g = %d, want %d", c.target, got, c.want)
			}
			var exact int64
			for _, v := range obs {
				if float64(v) >= c.target {
					exact++
				}
			}
			if got < exact {
				t.Errorf("above %g = %d undercounts the %d observations at or above it", c.target, got, exact)
			}
		})
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := buildTestRegistry()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["zipflm_requests_total"] != 7 {
		t.Errorf("counter in snapshot = %d, want 7", snap.Counters["zipflm_requests_total"])
	}
	if snap.Gauges["zipflm_queue_depth"] != 3 {
		t.Errorf("gauge in snapshot = %g, want 3", snap.Gauges["zipflm_queue_depth"])
	}
	h := snap.Histograms["zipflm_latency_seconds"]
	if h.Count != 2 || h.Unit != "s" {
		t.Errorf("histogram snapshot = %+v", h)
	}
	if h.Sum != 0.025 {
		t.Errorf("histogram sum = %g, want 0.025 (seconds)", h.Sum)
	}
	if h.P50 <= 0 || h.P99 < h.P50 {
		t.Errorf("quantiles disordered: %+v", h)
	}
}

func TestOnCollect(t *testing.T) {
	r := NewRegistry()
	backing := int64(41)
	r.OnCollect(func() { r.Gauge("derived").SetInt(backing) })
	backing = 42
	snap := r.Snapshot()
	if snap.Gauges["derived"] != 42 {
		t.Fatalf("collector must run at export time: got %g", snap.Gauges["derived"])
	}
}

func TestHandler(t *testing.T) {
	r := buildTestRegistry()
	h := Handler(r)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "zipflm_requests_total 7") {
		t.Errorf("text body missing counter:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("JSON Content-Type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("JSON body: %v", err)
	}
}

// TestHandlerContentNegotiation: one endpoint, two formats — the Accept
// header selects JSON, anything else gets Prometheus text, and the
// ?format=json alias keeps working (and beats Accept when both appear).
func TestHandlerContentNegotiation(t *testing.T) {
	r := buildTestRegistry()
	h := Handler(r)

	cases := []struct {
		name, query, accept string
		wantJSON            bool
	}{
		{"bare GET is text", "", "", false},
		{"accept json", "", "application/json", true},
		{"accept json with params", "", "application/json; q=0.9", true},
		{"accept list", "", "text/html, application/json", true},
		{"accept other", "", "text/plain", false},
		{"format alias", "?format=json", "", true},
		{"format text beats accept", "?format=prometheus", "application/json", false},
		{"format json beats accept", "?format=json", "text/plain", true},
	}
	for _, tc := range cases {
		req := httptest.NewRequest("GET", "/metrics"+tc.query, nil)
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		ct := rec.Header().Get("Content-Type")
		if tc.wantJSON {
			if ct != "application/json" {
				t.Errorf("%s: Content-Type = %q, want application/json", tc.name, ct)
				continue
			}
			var snap Snapshot
			if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
				t.Errorf("%s: body not a JSON snapshot: %v", tc.name, err)
			}
		} else if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("%s: Content-Type = %q, want Prometheus text", tc.name, ct)
		}
	}
}

// TestScrapeWhileRegistering: exporters read every instrument they list
// under the registry lock, so a scrape running while another goroutine
// creates instruments is race-free (go test -race).
func TestScrapeWhileRegistering(t *testing.T) {
	r := NewRegistry()
	r.Duration("h_0").Record(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i < 200; i++ {
			r.Duration(fmt.Sprintf("h_%d", i)).Record(int64(i))
			r.Counter(fmt.Sprintf("c_%d", i)).Inc()
			r.Gauge(fmt.Sprintf("g_%d", i)).SetInt(int64(i))
		}
	}()
	for i := 0; i < 50; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		r.Snapshot()
	}
	<-done
	if got := len(r.Snapshot().Histograms); got != 200 {
		t.Fatalf("snapshot has %d histograms, want 200", got)
	}
}

// TestCollectBuildInfo: the build metadata names this toolchain and host,
// and a test binary, built without a VCS stamp, still reports a version
// and a commit.
func TestCollectBuildInfo(t *testing.T) {
	info := CollectBuildInfo()
	if info.Go != runtime.Version() || info.GOOS != runtime.GOOS || info.GOARCH != runtime.GOARCH {
		t.Errorf("toolchain %s %s/%s, want %s %s/%s", info.Go, info.GOOS, info.GOARCH, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	}
	if info.GOMAXPROCS != runtime.GOMAXPROCS(0) || info.NumCPU != runtime.NumCPU() {
		t.Errorf("host shape %d/%d, want %d/%d", info.GOMAXPROCS, info.NumCPU, runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	if info.Version == "" || info.Commit == "" {
		t.Errorf("empty version or commit: %+v", info)
	}
	raw, err := json.Marshal(info)
	if err != nil {
		t.Fatal(err)
	}
	var back BuildInfo
	if err := json.Unmarshal(raw, &back); err != nil || back != info {
		t.Errorf("JSON round trip: %+v (%v), want %+v", back, err, info)
	}
}

// TestScrapeRegistersNothing: exporting is read-only — an empty registry
// exports no series however often it is scraped, and scraping a populated
// one adds no family of its own.
func TestScrapeRegistersNothing(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != 0 {
			t.Fatalf("scrape %d of an empty registry wrote:\n%s", i, buf.String())
		}
		if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
			t.Fatalf("snapshot %d of an empty registry: %+v", i, s)
		}
	}
	r.Counter("zipflm_a_total").Inc()
	r.Gauge("zipflm_b").Set(1)
	r.Duration("zipflm_c_seconds").Observe(time.Millisecond)
	for i := 0; i < 3; i++ {
		r.WritePrometheus(io.Discard)
		if s := r.Snapshot(); len(s.Counters) != 1 || len(s.Gauges) != 1 || len(s.Histograms) != 1 {
			t.Fatalf("scrape %d grew the registry: %+v", i, s)
		}
	}
}

// TestSnapshotAgreesWithExposition: the JSON snapshot and the Prometheus
// text carry the same series with the same values.
func TestSnapshotAgreesWithExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("zipflm_req_total").Add(3)
	r.Counter(Label("zipflm_bytes_total", "op", "get")).Add(7)
	r.Counter(Label("zipflm_bytes_total", "op", "put")).Add(9)
	r.Gauge("zipflm_depth").Set(2.5)
	h := r.Duration("zipflm_wait_seconds")
	h.Observe(2 * time.Millisecond)
	h.Observe(4 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	snap := r.Snapshot()
	for name, v := range snap.Counters {
		if want := fmt.Sprintf("%s %d\n", name, v); !strings.Contains(text, want) {
			t.Errorf("counter %q missing from exposition:\n%s", want, text)
		}
	}
	for name, v := range snap.Gauges {
		if want := fmt.Sprintf("%s %s\n", name, formatFloat(v)); !strings.Contains(text, want) {
			t.Errorf("gauge %q missing from exposition:\n%s", want, text)
		}
	}
	for name, hs := range snap.Histograms {
		if want := fmt.Sprintf("%s_count %d\n", name, hs.Count); !strings.Contains(text, want) {
			t.Errorf("histogram %q missing from exposition:\n%s", want, text)
		}
		if want := fmt.Sprintf("%s_sum %s\n", name, formatFloat(hs.Sum)); !strings.Contains(text, want) {
			t.Errorf("histogram %q missing from exposition:\n%s", want, text)
		}
	}
	samples := 0
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.Contains(line, "_bucket{") {
			samples++
		}
	}
	// Four counter and gauge samples, and a _sum and _count per histogram.
	if want := len(snap.Counters) + len(snap.Gauges) + 2*len(snap.Histograms); samples != want || want != 6 {
		t.Errorf("exposition has %d samples, snapshot %d (want 6):\n%s", samples, want, text)
	}
}
