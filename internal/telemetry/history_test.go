package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestHistCumDeltaMatchesFreshHistogram is the delta-snapshot contract the
// /metrics/history dump rests on: subtracting two cumulative snapshots
// bucket by bucket yields exactly the distribution of the observations
// recorded between them — the same count, sum and buckets as a fresh
// histogram fed only those observations.
func TestHistCumDeltaMatchesFreshHistogram(t *testing.T) {
	h := NewHistogram("", 0)
	for _, v := range []int64{1, 5, 17, 900, 3} {
		h.Record(v)
	}
	before := h.CumSnapshot()

	fresh := NewHistogram("", 0)
	for _, v := range []int64{2, 2, 64, 1000, 1000000, 7, 31, 31, 500} {
		h.Record(v)
		fresh.Record(v)
	}
	after, want := h.CumSnapshot(), fresh.CumSnapshot()

	if got := after.Count - before.Count; got != want.Count {
		t.Fatalf("delta count = %d, want %d", got, want.Count)
	}
	if got := after.Sum - before.Sum; got != want.Sum {
		t.Fatalf("delta sum = %d, want %d", got, want.Sum)
	}
	buckets := func(c HistCum) map[int32]int64 {
		m := map[int32]int64{}
		for i, idx := range c.BucketIdx {
			if i > 0 && idx <= c.BucketIdx[i-1] {
				t.Fatalf("bucket indices not ascending: %v", c.BucketIdx)
			}
			m[idx] = c.BucketN[i]
		}
		return m
	}
	delta := buckets(after)
	for idx, n := range buckets(before) {
		if delta[idx] -= n; delta[idx] == 0 {
			delete(delta, idx)
		}
	}
	wantBuckets := buckets(want)
	if len(delta) != len(wantBuckets) {
		t.Fatalf("delta buckets %v, want %v", delta, wantBuckets)
	}
	for idx, n := range wantBuckets {
		if delta[idx] != n {
			t.Errorf("delta bucket %d holds %d, want %d", idx, delta[idx], n)
		}
	}
}

// TestHistoryRingWraparound fills a small ring far past capacity and
// checks the ring retains exactly the newest samples, oldest first, with
// sequence numbers that expose how much history fell off.
func TestHistoryRingWraparound(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("zipflm_test_total")
	h := NewHistory(reg, HistoryConfig{Capacity: 4})

	t0 := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		c.Add(1)
		h.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	if len(h.Samples()) != 4 {
		t.Fatalf("len = %d, want the capacity 4", len(h.Samples()))
	}
	samples := h.Samples()
	for i, s := range samples {
		wantSeq := uint64(6 + i)
		if s.Seq != wantSeq {
			t.Errorf("sample %d seq = %d, want %d", i, s.Seq, wantSeq)
		}
		if got, want := s.Counters["zipflm_test_total"], int64(7+i); got != want {
			t.Errorf("sample %d counter = %d, want %d", i, got, want)
		}
	}
}

// TestHistoryRateAndWindow: History computes no rates or windows itself —
// adjacent samples must carry what a reader of the dump derives them from:
// counter values, cumulative histogram counts and the wall-clock stamp.
func TestHistoryRateAndWindow(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("zipflm_tokens_total")
	lat := reg.Duration("zipflm_latency_seconds")
	reg.Gauge("zipflm_depth").SetInt(3)
	h := NewHistory(reg, HistoryConfig{Capacity: 16})

	t0 := time.Unix(2000, 0)
	lat.Record(int64(100 * time.Millisecond)) // before the window
	h.Sample(t0)

	c.Add(100)
	lat.Record(int64(10 * time.Millisecond))
	lat.Record(int64(12 * time.Millisecond))
	h.Sample(t0.Add(2 * time.Second))

	samples := h.Samples()
	o, n := samples[0], samples[1]
	delta := float64(n.Counters["zipflm_tokens_total"] - o.Counters["zipflm_tokens_total"])
	if rate := delta / n.Wall.Sub(o.Wall).Seconds(); rate != 50 {
		t.Fatalf("wall rate = %g, want 50 (100 tokens / 2 wall seconds)", rate)
	}
	if _, ok := o.Counters["zipflm_missing_total"]; ok {
		t.Fatal("sample carries a counter nobody registered")
	}
	oc, nc := o.Hists["zipflm_latency_seconds"], n.Hists["zipflm_latency_seconds"]
	if got := nc.Count - oc.Count; got != 2 {
		t.Fatalf("windowed count = %d, want 2 (the 100ms pre-window record must be excluded)", got)
	}
	if mean := time.Duration((nc.Sum - oc.Sum) / 2); mean != 11*time.Millisecond {
		t.Fatalf("windowed mean = %v, want 11ms (not the lifetime 100ms)", mean)
	}
	if g := o.Gauges["zipflm_depth"]; g != 3 {
		t.Fatalf("gauge in sample = %g, want 3", g)
	}
}

// TestHistoryVirtualClock: with a VClock reader every sample is stamped on
// the virtual axis too, so the same counter delta divides into a virtual
// rate next to the wall one.
func TestHistoryVirtualClock(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("zipflm_steps_total")
	var vnow float64
	h := NewHistory(reg, HistoryConfig{Capacity: 8, VClock: func() float64 { return vnow }})

	t0 := time.Unix(3000, 0)
	h.Sample(t0)
	vnow = 4.0
	c.Add(8)
	h.Sample(t0.Add(time.Second))

	o, n := h.Samples()[0], h.Samples()[1]
	if o.VClock != 0 || n.VClock != 4.0 {
		t.Fatalf("vclock stamps = %g, %g, want 0, 4", o.VClock, n.VClock)
	}
	steps := float64(n.Counters["zipflm_steps_total"] - o.Counters["zipflm_steps_total"])
	if vr := steps / (n.VClock - o.VClock); vr != 2 {
		t.Fatalf("virtual rate = %g, want 2 (8 steps / 4 virtual seconds)", vr)
	}
	if wr := steps / n.Wall.Sub(o.Wall).Seconds(); wr != 8 {
		t.Fatalf("wall rate = %g, want 8 (8 steps / 1 wall second)", wr)
	}
}

// TestHistoryConcurrentRecording drives counters and histograms from many
// goroutines while a sampler wraps the ring, then checks every invariant
// the ring promises: per-sample monotone counters, non-negative histogram
// deltas, strictly increasing sequence numbers. Runs under -race in CI.
func TestHistoryConcurrentRecording(t *testing.T) {
	reg := NewRegistry()
	h := NewHistory(reg, HistoryConfig{Capacity: 8})
	c := reg.Counter("zipflm_ops_total")
	lat := reg.Duration("zipflm_op_seconds")

	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				lat.Record(int64(w*100 + i%50))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		h.Sample(time.Now())
	}
	close(stop)
	wg.Wait()
	h.Sample(time.Now())

	samples := h.Samples()
	if len(samples) != 8 {
		t.Fatalf("ring holds %d samples, want 8", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		prev, cur := samples[i-1], samples[i]
		if cur.Seq != prev.Seq+1 {
			t.Fatalf("sample %d seq %d follows %d", i, cur.Seq, prev.Seq)
		}
		if cur.Counters["zipflm_ops_total"] < prev.Counters["zipflm_ops_total"] {
			t.Fatalf("counter went backwards: %d after %d",
				cur.Counters["zipflm_ops_total"], prev.Counters["zipflm_ops_total"])
		}
		ph, ch := prev.Hists["zipflm_op_seconds"], cur.Hists["zipflm_op_seconds"]
		if ch.Count < ph.Count || ch.Sum < ph.Sum {
			t.Fatalf("negative histogram delta between adjacent samples: %+v after %+v", ch, ph)
		}
	}
}

func TestHistoryStartStop(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zipflm_x_total").Add(5)
	h := NewHistory(reg, HistoryConfig{Capacity: 32, Interval: time.Millisecond})
	stop := h.Start()
	time.Sleep(20 * time.Millisecond)
	stop()
	stop() // idempotent
	n := len(h.Samples())
	if n == 0 {
		t.Fatal("background sampler recorded nothing")
	}
	time.Sleep(5 * time.Millisecond)
	if len(h.Samples()) != n {
		t.Fatal("sampler still running after stop")
	}
}

func TestHistoryJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zipflm_a_total").Add(7)
	reg.Gauge("zipflm_b").Set(1.5)
	reg.Duration("zipflm_c_seconds").Record(1234)
	h := NewHistory(reg, HistoryConfig{Capacity: 4, VClock: func() float64 { return 9 }})
	h.Sample(time.Unix(5000, 0).UTC())

	var buf bytes.Buffer
	if err := h.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Capacity  int             `json:"capacity"`
		IntervalS float64         `json:"interval_s"`
		Samples   []HistorySample `json:"samples"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("export not decodable: %v", err)
	}
	if dump.Capacity != 4 || len(dump.Samples) != 1 {
		t.Fatalf("dump shape: capacity %d, %d samples", dump.Capacity, len(dump.Samples))
	}
	s := dump.Samples[0]
	if s.Counters["zipflm_a_total"] != 7 || s.Gauges["zipflm_b"] != 1.5 || s.VClock != 9 {
		t.Fatalf("sample round-trip mismatch: %+v", s)
	}
	if s.Hists["zipflm_c_seconds"].Count != 1 {
		t.Fatalf("histogram snapshot missing: %+v", s.Hists)
	}
}

func TestHistoryNilSafe(t *testing.T) {
	var h *History
	h.Sample(time.Now())
	h.Start()()
	if h.Samples() != nil {
		t.Fatal("nil History not inert")
	}
	if err := h.WriteJSON(nil); err != nil {
		t.Fatal(err)
	}
	if NewHistory(nil, HistoryConfig{}) != nil {
		t.Fatal("NewHistory(nil) must be nil")
	}
}
