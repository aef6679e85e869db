package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
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
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil WritePrometheus wrote %q, %v; want nothing", buf.String(), err)
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
	if r.Histogram("z", 1e-9) != r.Duration("z") {
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
	h := r.Histogram("zipflm_wait", 1)
	obs := []int64{0, 1, 5, 10, 31, 100, 1000}
	for _, v := range obs {
		h.Record(v)
	}
	total, good := int64(-1), map[float64]int64{}
	for series, v := range scrape(t, r) {
		le, ok := strings.CutPrefix(series, `zipflm_wait_bucket{le="`)
		if !ok {
			continue
		}
		le = strings.TrimSuffix(le, `"}`)
		if le == "+Inf" {
			total = int64(v)
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", series, err)
		}
		good[bound] = int64(v)
	}
	if total != int64(len(obs)) {
		t.Fatalf(`le="+Inf" = %d, want %d`, total, len(obs))
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

func TestOnCollect(t *testing.T) {
	r := NewRegistry()
	backing := int64(41)
	r.OnCollect(func() { r.Gauge("derived").SetInt(backing) })
	backing = 42
	if got := scrape(t, r)["derived"]; got != 42 {
		t.Fatalf("collector must run at export time: got %g", got)
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

	// One format, whatever the client asks for.
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/json")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Accept: application/json got Content-Type %q, want text", ct)
	}
	if !strings.Contains(rec.Body.String(), "zipflm_requests_total 7\n") {
		t.Errorf("Accept: application/json body is not the text exposition:\n%s", rec.Body.String())
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
	}
	<-done
	hists := 0
	for series := range scrape(t, r) {
		if strings.HasSuffix(series, "_count") {
			hists++
		}
	}
	if hists != 200 {
		t.Fatalf("exposition has %d histograms, want 200", hists)
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
	}
	r.Counter("zipflm_a_total").Inc()
	r.Gauge("zipflm_b").Set(1)
	r.Duration("zipflm_c_seconds").Observe(time.Millisecond)
	// a, b, and c's bucket, +Inf bucket, _sum and _count.
	for i := 0; i < 3; i++ {
		if series := scrape(t, r); len(series) != 6 {
			t.Fatalf("scrape %d exported %d series, want 6: %v", i, len(series), series)
		}
	}
}

// scrape writes r's exposition and parses it back, as a scraper would.
func scrape(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series, err := ParseText(&buf)
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	return series
}

// roundTripLabels are the label values roundTripRegistry exports: a space,
// an escaped quote and an escaped newline among them.
var roundTripLabels = []string{"GET /a b", "x 9", `say "hi"`, "two\nlines"}

// roundTripRegistry is the registry TestParseTextRoundTrip exports: a
// counter, a labelled counter family, a NaN gauge and a histogram with obs
// recorded. want holds every series but the NaN gauge and the finite
// buckets, at the values a scrape must read.
func roundTripRegistry() (r *Registry, want map[string]float64, obs []time.Duration) {
	r = NewRegistry()
	r.Counter("zipflm_req_total").Add(3)
	want = map[string]float64{"zipflm_req_total": 3}
	for i, v := range roundTripLabels {
		name := Label("zipflm_path_total", "path", v)
		r.Counter(name).Add(int64(10 + i))
		want[name] = float64(10 + i)
	}
	r.Gauge("zipflm_ratio").Set(math.NaN())
	h := r.Duration("zipflm_wait_seconds")
	obs = []time.Duration{time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond, 50 * time.Millisecond}
	for _, d := range obs {
		h.Observe(d)
	}
	want["zipflm_wait_seconds_count"] = float64(h.Count())
	want["zipflm_wait_seconds_sum"] = float64(h.Sum()) * 1e-9
	want[`zipflm_wait_seconds_bucket{le="+Inf"}`] = float64(h.Count())
	return r, want, obs
}

// TestParseTextRoundTrip: every series the writer emits parses back to the
// registry's value under its name as written — label values with a space,
// an escaped quote or an escaped newline included, and a NaN gauge.
func TestParseTextRoundTrip(t *testing.T) {
	r, want, obs := roundTripRegistry()
	got := scrape(t, r)
	for name, v := range want {
		if g, ok := got[name]; !ok || g != v {
			t.Errorf("%s = %g (present %v), want %g", name, g, ok, v)
		}
	}
	if v, ok := got["zipflm_ratio"]; !ok || !math.IsNaN(v) {
		t.Errorf("zipflm_ratio = %g (present %v), want NaN", v, ok)
	}
	buckets := 0
	for name, v := range got {
		le, ok := strings.CutPrefix(name, `zipflm_wait_seconds_bucket{le="`)
		if !ok || le == `+Inf"}` {
			continue
		}
		buckets++
		bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
		if err != nil {
			t.Fatalf("bucket %q: %v", name, err)
		}
		var below int
		for _, d := range obs {
			if d.Seconds() <= bound {
				below++
			}
		}
		if v != float64(below) {
			t.Errorf("%s = %g, want %d observations at or below %g s", name, v, below, bound)
		}
	}
	if buckets != 3 {
		t.Errorf("%d finite buckets, want 3 (one per distinct observation)", buckets)
	}
	if n := len(want) + 1 + buckets; len(got) != n {
		t.Errorf("parsed %d series, want %d: %v", len(got), n, got)
	}
}

// TestParseTextReadsLongLines: a 70 000-byte label value makes an
// exposition line longer than a bufio.Scanner's default 64 KiB limit, and
// it parses back under its name all the same.
func TestParseTextReadsLongLines(t *testing.T) {
	r := NewRegistry()
	name := Label("zipflm_path_total", "path", strings.Repeat("a/", 35000))
	r.Counter(name).Add(7)
	if got := scrape(t, r); len(got) != 1 || got[name] != 7 {
		t.Fatalf("parsed %d series, want only the 70 000-byte label's at 7", len(got))
	}
}

// TestParseTextNamesMalformedLines: a line without a series or a value, or
// with a value that is not a number, fails the parse and the error names
// the line.
func TestParseTextNamesMalformedLines(t *testing.T) {
	for _, bad := range []string{"zipflm_x", "zipflm_x x", " 1", "zipflm_x{a=\"b c\"} "} {
		text := "# TYPE zipflm_ok counter\nzipflm_ok 1\n" + bad + "\n"
		_, err := ParseText(strings.NewReader(text))
		if err == nil {
			t.Errorf("%q parsed without error", bad)
			continue
		}
		if !strings.Contains(err.Error(), strconv.Quote(bad)) || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%q: error %q does not name the line", bad, err)
		}
	}
}

// FuzzParseText feeds ParseText arbitrary bytes, which must never panic it
// (it reads what zipflm-top fetches over the network), and exports a registry
// built from the fuzzed label value, counter, gauge and observations, whose
// exposition must parse back to the registry's values. Seeded with
// roundTripRegistry's exposition and label values.
func FuzzParseText(f *testing.F) {
	r, _, _ := roundTripRegistry()
	var seed bytes.Buffer
	if err := r.WritePrometheus(&seed); err != nil {
		f.Fatal(err)
	}
	for i, label := range roundTripLabels {
		f.Add(seed.Bytes(), label, int64(10+i), math.NaN(), int64(time.Millisecond), int64(50*time.Millisecond))
	}
	f.Add([]byte("zipflm_x{a=\"b c\"} \n# TYPE\n\nzipflm_y +Inf\n"), `\\"`, int64(-1), math.Inf(-1), int64(-5), int64(1)<<62)
	f.Fuzz(func(t *testing.T, text []byte, label string, count int64, gauge float64, d0, d1 int64) {
		ParseText(bytes.NewReader(text))

		r := NewRegistry()
		counter := Label("zipflm_path_total", "path", label)
		r.Counter(counter).Add(count)
		r.Gauge("zipflm_ratio").Set(gauge)
		h := r.Duration("zipflm_wait_seconds")
		h.Record(d0)
		h.Record(d1)
		got := scrape(t, r)
		for name, v := range map[string]float64{
			counter:                                 float64(count),
			"zipflm_ratio":                          gauge,
			"zipflm_wait_seconds_count":             2,
			"zipflm_wait_seconds_sum":               float64(h.Sum()) * 1e-9,
			`zipflm_wait_seconds_bucket{le="+Inf"}`: 2,
		} {
			if g, ok := got[name]; !ok || g != v && !(math.IsNaN(g) && math.IsNaN(v)) {
				t.Errorf("%q = %g (present %v), want %g", name, g, ok, v)
			}
		}
	})
}
