package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"zipflm/internal/ckpt"
	"zipflm/internal/model"
	"zipflm/internal/serve"
	"zipflm/internal/telemetry"
)

// The HTTP boundary, driven through the mux the command serves: every way
// a client can get a request wrong is answered with the right status before
// it costs a batch slot, and a reload that fails leaves the served weights,
// their version and the generated tokens exactly as they were — counted
// and recorded, not just printed.

const testVocab = 150

func testArch(hidden int) model.Config {
	return model.Config{Vocab: testVocab, Dim: 16, Hidden: hidden, RNN: model.KindLSTM, Seed: 9}
}

type api struct {
	*httptest.Server
	obs     *telemetry.Observers
	srv     *serve.Server
	weights *weightsInfo
}

// newAPI serves a fresh random model with no vocabulary file behind newMux,
// observed the way the command observes it; metricsAddr non-empty also
// starts the observer listener.
func newAPI(t testing.TB, metricsAddr string) *api {
	t.Helper()
	obs, err := telemetry.Start("zipflm-serve", telemetry.Options{
		Flight: 16, MetricsAddr: metricsAddr, Exported: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs.Flight.SetSink(nil)
	srv := serve.New(model.NewLM(testArch(24)), serve.Config{
		Workers: 1, MaxBatch: 4, Telemetry: obs.Registry, Flight: obs.Flight,
	})
	weights := &weightsInfo{source: "memory"}
	ts := httptest.NewServer(newMux(srv, nil, weights, obs))
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		obs.Stop()
	})
	return &api{Server: ts, obs: obs, srv: srv, weights: weights}
}

// post sends body to path and returns the status and the response body.
func (a *api) post(t testing.TB, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(a.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// generate posts a request that must succeed and returns the response.
func (a *api) generate(t *testing.T, body string) genResponse {
	t.Helper()
	status, raw := a.post(t, "/v1/generate", body)
	if status != http.StatusOK {
		t.Fatalf("generate %s: status %d: %s", body, status, raw)
	}
	var out genResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("generate %s: %v in %s", body, err, raw)
	}
	return out
}

// badGenerates are request bodies /v1/generate must refuse, each with the
// status it answers.
func badGenerates() map[string]struct {
	body string
	want int
} {
	ids := make([]string, maxBodyBytes/2)
	for i := range ids {
		ids[i] = "1"
	}
	oversized := `{"prompt_ids":[` + strings.Join(ids, ",") + `],"n":4}`
	return map[string]struct {
		body string
		want int
	}{
		"malformed json":         {`{"prompt_ids":[1,2`, http.StatusBadRequest},
		"wrong field type":       {`{"prompt_ids":"1 2 3"}`, http.StatusBadRequest},
		"oversized body":         {oversized, http.StatusRequestEntityTooLarge},
		"empty prompt":           {`{"n":4}`, http.StatusBadRequest},
		"id at vocabulary size":  {fmt.Sprintf(`{"prompt_ids":[1,%d],"n":4}`, testVocab), http.StatusBadRequest},
		"negative id":            {`{"prompt_ids":[-1],"n":4}`, http.StatusBadRequest},
		"negative n":             {`{"prompt_ids":[1],"n":-3}`, http.StatusBadRequest},
		"n over the limit":       {`{"prompt_ids":[1],"n":4097}`, http.StatusBadRequest},
		"negative temperature":   {`{"prompt_ids":[1],"n":4,"temperature":-0.5}`, http.StatusBadRequest},
		"text prompt, no -vocab": {`{"prompt":"the cat","n":4}`, http.StatusBadRequest},
		"deadline mid-flight":    {`{"prompt_ids":[1],"n":4096,"timeout_ms":1}`, http.StatusGatewayTimeout},
	}
}

func TestGenerateRejectsBadRequests(t *testing.T) {
	a := newAPI(t, "")
	for name, tc := range badGenerates() {
		if got, raw := a.post(t, "/v1/generate", tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", name, got, tc.want, bytes.TrimSpace(raw))
		}
	}
	for _, path := range []string{"/v1/generate", "/v1/reload"} {
		resp, err := http.Get(a.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
		}
	}
	// Nothing above reached a batch slot except the request that expired in one.
	var stats struct{ Accepted, Completed int64 }
	a.stats(t, &stats)
	if stats.Accepted != 1 || stats.Completed != 0 {
		t.Errorf("rejected requests were admitted: accepted %d, completed %d", stats.Accepted, stats.Completed)
	}
}

// TestSlowBodyIsCutOff: a client that sends complete headers and then one
// body byte every 100 ms is answered 408 within bodyReadTimeout (plus a
// second of slack), and its handler has returned by then, so Shutdown
// finishes at once instead of waiting for the client.
func TestSlowBodyIsCutOff(t *testing.T) {
	a := newAPI(t, "")
	conn, err := net.Dial("tcp", a.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/generate HTTP/1.1\r\nHost: zipflm\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n")
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := conn.Write([]byte(" ")); err != nil {
					return
				}
			}
		}
	}()
	defer func() { close(stop); <-stopped }()

	bound := bodyReadTimeout + time.Second
	conn.SetReadDeadline(start.Add(bound))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no answer within %v of the headers: %v", bound, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status %d after %v, want %d", resp.StatusCode, time.Since(start), http.StatusRequestTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := a.Config.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with the slow client still connected: %v", err)
	}
}

// FuzzGenerate posts arbitrary bodies to /v1/generate: each must be
// answered with a status the API documents, and a 200 must carry a
// genResponse. A handler that panics drops the connection, which post
// reports. /v1/reload's handler is not fuzzed, because its body names a file
// to open; FuzzReloadBody fuzzes its decoder.
func FuzzGenerate(f *testing.F) {
	for _, tc := range badGenerates() {
		f.Add(tc.body)
	}
	f.Add(`{"prompt_ids":[3,1,4],"n":8,"temperature":0.8,"top_k":5,"top_p":0.9,"seed":7}`)
	a := newAPI(f, "")
	f.Fuzz(func(t *testing.T, body string) {
		switch status, raw := a.post(t, "/v1/generate", body); status {
		case http.StatusOK:
			var out genResponse
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("200 for %q is not a genResponse: %v in %s", body, err, raw)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d for %q: %s", status, body, bytes.TrimSpace(raw))
		}
	})
}

// FuzzReloadBody feeds arbitrary bodies to decodeBody into a reloadRequest,
// the decoder /v1/reload runs: each must decode (an unknown field is
// ignored), or be answered 400 or 413, and never panic. Nothing is loaded —
// the decoded paths are never opened.
func FuzzReloadBody(f *testing.F) {
	for _, body := range []string{
		``, `{}`, `{"path":"/nonexistent"}`, `{"path":"m.ckpt","draft_path":"d.ckpt"}`,
		`{"path":1}`, `{"path":"a"} trailing`, `[`, `null`, `{"path":"\ud800"}`,
		`{"path":"` + strings.Repeat("a", maxBodyBytes) + `"}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/reload", strings.NewReader(body))
		var in reloadRequest
		decoded := decodeBody(w, r, &in)
		switch {
		case decoded && w.Code == http.StatusOK && w.Body.Len() == 0:
		case !decoded && (w.Code == http.StatusBadRequest || w.Code == http.StatusRequestEntityTooLarge):
		default:
			t.Fatalf("body %.80q: decoded %v, status %d: %s", body, decoded, w.Code, bytes.TrimSpace(w.Body.Bytes()))
		}
	})
}

// stats decodes GET /v1/stats into v.
func (a *api) stats(t *testing.T, v any) {
	t.Helper()
	resp, err := http.Get(a.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("/v1/stats: %v", err)
	}
}

func TestGenerateDefaultsAndTinyTemperature(t *testing.T) {
	a := newAPI(t, "")
	if got := len(a.generate(t, `{"prompt_ids":[3,1,4]}`).Tokens); got != 24 {
		t.Errorf("omitted n generated %d tokens, want 24", got)
	}
	// A temperature too small to divide by (it is denormal as a float32 and
	// its reciprocal overflows) must decode greedily, like temperature 0 —
	// the bug PR 14 found by accident.
	greedy := a.generate(t, `{"prompt_ids":[3,1,4],"n":12,"temperature":0,"seed":1}`)
	tiny := a.generate(t, `{"prompt_ids":[3,1,4],"n":12,"temperature":1e-39,"seed":2}`)
	if !reflect.DeepEqual(greedy.Tokens, tiny.Tokens) {
		t.Errorf("temperature 1e-39 decoded %v, temperature 0 decoded %v", tiny.Tokens, greedy.Tokens)
	}

	var stats struct {
		Completed      int64  `json:"completed"`
		Tokens         int64  `json:"tokens"`
		WeightsVersion uint64 `json:"weights_version"`
		Checkpoint     struct{ Source string }
	}
	a.stats(t, &stats)
	if stats.Completed != 3 || stats.Tokens != 24+12+12 || stats.WeightsVersion != 1 || stats.Checkpoint.Source != "memory" {
		t.Errorf("/v1/stats after three generations: %+v", stats)
	}
}

// TestGenerateLatencyIsFractional: latency_ms is in fractional milliseconds,
// so a request served in under a millisecond reads above 0 rather than
// truncating to it. One-token requests on the test model take tens of
// microseconds; the test skips, saying so, if none of them finished in under
// a millisecond on a loaded host.
func TestGenerateLatencyIsFractional(t *testing.T) {
	a := newAPI(t, "")
	for seed := 0; seed < 20; seed++ {
		lat := a.generate(t, fmt.Sprintf(`{"prompt_ids":[3,1,4],"n":1,"seed":%d}`, seed)).LatencyMS
		if lat <= 0 {
			t.Fatalf("seed %d: latency_ms %v, want > 0", seed, lat)
		}
		if lat < 1 {
			return
		}
	}
	t.Skip("no request finished in under a millisecond on this host")
}

// writeCheckpoint writes m's weights to path as a checkpoint of the given
// step, the frame zipflm-train -save writes.
func writeCheckpoint(t *testing.T, path string, step int, m *model.LM) []byte {
	t.Helper()
	mb, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.WriteFile(path, &ckpt.State{Step: step, Ranks: 1, ModelBytes: mb}); err != nil {
		t.Fatal(err)
	}
	return mb
}

// TestLoadWeightsReadsOnlyCheckpoints: -model and /v1/reload load a
// checkpoint file with its step, and a checkpoint directory's newest step.
// They refuse, with the path in the error, the file with one weight byte
// flipped and the model's bytes written on their own — the old -save
// format, which carries no checksum to catch the flip.
func TestLoadWeightsReadsOnlyCheckpoints(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "model.ckpt")
	mb := writeCheckpoint(t, saved, 7, model.NewLM(testArch(24)))
	run := filepath.Join(dir, "run")
	if err := os.Mkdir(run, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{3, 9} {
		writeCheckpoint(t, filepath.Join(run, fmt.Sprintf("step-%012d.ckpt", step)), step, model.NewLM(testArch(24)))
	}
	for path, want := range map[string]int{saved: 7, run: 9} {
		m, step, err := loadWeights(path)
		if err != nil || step != want {
			t.Fatalf("%s: step %d, %v; want step %d", path, step, err, want)
		}
		if got, _ := m.Marshal(); path == saved && !bytes.Equal(got, mb) {
			t.Errorf("%s: the loaded weights differ from the saved ones", path)
		}
	}

	raw, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	weights := bytes.Index(raw, mb)
	flipped := slices.Clone(raw)
	flipped[weights+len(mb)-100] ^= 0x01 // inside the dense slab
	for name, content := range map[string][]byte{"flipped.ckpt": flipped, "bare.ckpt": mb} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		if m, _, err := loadWeights(path); m != nil || err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: loaded %v, error %v; want a refusal naming the path", name, m != nil, err)
		}
	}
}

func TestFailedReloadsChangeNothingAndAreCounted(t *testing.T) {
	a := newAPI(t, "")
	const gen = `{"prompt_ids":[3,1,4],"n":10,"temperature":0.8,"seed":7}`
	before := a.generate(t, gen)

	dir := t.TempDir()
	mismatched := filepath.Join(dir, "wider.ckpt")
	writeCheckpoint(t, mismatched, 1, model.NewLM(testArch(32)))

	if status, raw := a.post(t, "/v1/reload", fmt.Sprintf(`{"path":%q}`, filepath.Join(dir, "missing.ckpt"))); status != http.StatusBadRequest {
		t.Errorf("reload of a missing path: status %d, want 400 (%s)", status, raw)
	}
	if status, raw := a.post(t, "/v1/reload", fmt.Sprintf(`{"path":%q}`, mismatched)); status != http.StatusConflict {
		t.Errorf("reload of a wider architecture: status %d, want 409 (%s)", status, raw)
	}

	// Full-state checkpoints of the served architecture under other weights,
	// which would load if they were whole and current: a half-written newest
	// step in a checkpoint directory, and a file whose frame says version 3
	// (CRC intact).
	other := testArch(24)
	other.Seed++
	mb, err := model.NewLM(other).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := ckpt.Encode(&frame, &ckpt.State{Step: 5, Ranks: 1, ModelBytes: mb}); err != nil {
		t.Fatal(err)
	}
	halfWritten := filepath.Join(dir, "run")
	if err := os.Mkdir(halfWritten, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(halfWritten, "step-000000000005.ckpt"), frame.Bytes()[:frame.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	v3 := slices.Clone(frame.Bytes()[:frame.Len()-4])
	binary.LittleEndian.PutUint32(v3[8:12], 3)
	v3 = binary.LittleEndian.AppendUint32(v3, crc32.Checksum(v3, crc32.MakeTable(crc32.Castagnoli)))
	preV4 := filepath.Join(dir, "v3.ckpt")
	if err := os.WriteFile(preV4, v3, 0o644); err != nil {
		t.Fatal(err)
	}
	if status, raw := a.post(t, "/v1/reload", fmt.Sprintf(`{"path":%q}`, halfWritten)); status != http.StatusBadRequest {
		t.Errorf("reload of a directory whose newest checkpoint is half written: status %d, want 400 (%s)", status, raw)
	}
	if status, raw := a.post(t, "/v1/reload", fmt.Sprintf(`{"path":%q}`, preV4)); status != http.StatusBadRequest || !strings.Contains(string(raw), "version 3") {
		t.Errorf("reload of a version-3 checkpoint: status %d, want 400 naming the version (%s)", status, raw)
	}
	// A whole, current checkpoint of the served architecture with one NaN
	// weight, what a diverged run saves.
	diverged := model.NewLM(other)
	w := diverged.Weights()
	bad := w[len(w)-1]
	bad.Value[0] = float32(math.NaN())
	nanPath := filepath.Join(dir, "nan.ckpt")
	writeCheckpoint(t, nanPath, 6, diverged)
	if status, raw := a.post(t, "/v1/reload", fmt.Sprintf(`{"path":%q}`, nanPath)); status != http.StatusBadRequest || !strings.Contains(string(raw), fmt.Sprintf("%q", bad.Name)) {
		t.Errorf("reload of a checkpoint with a NaN weight: status %d, want 400 naming %q (%s)", status, bad.Name, raw)
	}

	after := a.generate(t, gen)
	if after.WeightsVersion != before.WeightsVersion || !reflect.DeepEqual(after.Tokens, before.Tokens) {
		t.Errorf("failed reloads changed what is served: v%d %v, was v%d %v",
			after.WeightsVersion, after.Tokens, before.WeightsVersion, before.Tokens)
	}
	var stats struct {
		WeightsVersion uint64 `json:"weights_version"`
		Reloads        int64  `json:"reloads"`
	}
	a.stats(t, &stats)
	if stats.WeightsVersion != 1 || stats.Reloads != 0 {
		t.Errorf("/v1/stats after five failed reloads: %+v", stats)
	}

	// Every failure is on /metrics and in the flight ring, with its cause.
	countsFive := func(when string) {
		t.Helper()
		resp, err := http.Get(a.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var metrics bytes.Buffer
		metrics.ReadFrom(resp.Body)
		resp.Body.Close()
		if !strings.Contains(metrics.String(), "\nzipflm_serve_reload_failures_total 5\n") {
			t.Errorf("%s: /metrics does not count five reload failures:\n%s", when, metrics.String())
		}
	}
	countsFive("after the failed reloads")
	var ring bytes.Buffer
	a.obs.Flight.Dump(&ring)
	for _, cause := range []string{"missing.ckpt", "does not match serving", "truncated", "version 3", "NaN or infinite"} {
		if !strings.Contains(ring.String(), cause) {
			t.Errorf("flight ring lacks the %q failure:\n%s", cause, ring.String())
		}
	}

	// -watch hot-reloads a newer step and then reads no file of a step it
	// has served: step 9's file overwritten with garbage once it is served
	// is never opened, so the polls after it count no failure and log
	// nothing.
	watched := filepath.Join(dir, "watched")
	if err := os.Mkdir(watched, 0o755); err != nil {
		t.Fatal(err)
	}
	step9 := filepath.Join(watched, "step-000000000009.ckpt")
	writeCheckpoint(t, step9, 9, model.NewLM(other))
	d, err := ckpt.NewDir(watched, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer // written by the watch goroutine until done is closed
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		watchLoop(a.srv, a.weights, d, time.Millisecond, stop, &logged)
	}()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, step, _ := a.weights.get(); step == 9 {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			t.Fatal("the watch did not serve step 9")
		}
	}
	if err := os.WriteFile(step9, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // dozens of polls
	close(stop)
	<-done
	if want := "zipflm-serve: hot-reloaded checkpoint step 9 (weights v2)\n"; logged.String() != want {
		t.Errorf("watch logged %q, want only %q", logged.String(), want)
	}
	a.stats(t, &stats)
	if stats.WeightsVersion != 2 || stats.Reloads != 1 {
		t.Errorf("/v1/stats after the watched reload: %+v", stats)
	}
	countsFive("after the watch")
}

// TestPprofOnlyOnObserverListener: /debug/pprof/ is served by the
// -metrics-addr listener and never by the public mux, /metrics answers on
// both, and the deleted /metrics/history answers on neither.
func TestPprofOnlyOnObserverListener(t *testing.T) {
	a := newAPI(t, "127.0.0.1:0")
	a.generate(t, `{"prompt_ids":[3,1,4],"n":4}`)
	status := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	observer := "http://" + a.obs.Addr()
	for _, tc := range []struct {
		base, path string
		want       int
	}{
		{a.URL, "/debug/pprof/", http.StatusNotFound},
		{observer, "/debug/pprof/", http.StatusOK},
		{a.URL, "/metrics", http.StatusOK},
		{observer, "/metrics", http.StatusOK},
		{a.URL, "/metrics/history", http.StatusNotFound},
		{observer, "/metrics/history", http.StatusNotFound},
	} {
		if got := status(tc.base + tc.path); got != tc.want {
			t.Errorf("GET %s%s: status %d, want %d", tc.base, tc.path, got, tc.want)
		}
	}
}

// TestRemovedFlagsExitTwo: removed flags — the ones the observer wiring
// replaced, the deleted lookahead decoder's two and the deleted
// metrics-history ring's two — are gone: each is the
// flag package's usage error, exit status 2, before -model is even looked
// at. A script still passing one fails instead of serving without it.
func TestRemovedFlagsExitTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "zipflm-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-dashboard"}, {"-profile-dir", t.TempDir()}, {"-profile-interval", "1s"}, {"-debug-addr", "127.0.0.1:0"},
		{"-draft", "x"}, {"-draft-k", "4"}, {"-history", "8"}, {"-history-interval", "1s"},
	} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), "flag provided but not defined: "+args[0]) {
			t.Errorf("%v: got %v, want exit status 2 naming the flag; stderr:\n%s", args, err, stderr.String())
		}
	}
}
