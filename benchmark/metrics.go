package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// family says which workloads a metric is measured on. A metric of the other
// family is not applicable there; the run contract still wants every
// workload to print every declared name, so it prints the metric's "not
// applicable" value: 1 for an end-to-end metric (they may never be 0), 0 for
// a per-layer metric. No family-specific metric has a time unit, so a
// constant is never mistaken for a measurement.
type family int

const (
	famAll family = iota
	famTrain
	famServe
)

// decl declares one metric: BENCHMARK.json lists the same names, units,
// directions and bounds (smoke_test.go keeps the two in step).
type decl struct {
	name, unit string
	fam        family
	better     string  // "lower" | "higher"
	bound      float64 // end-to-end only: share of the parent's median
}

// endToEnd is what a user of the trainer or the server sees. Values come
// from the untraced run only. fail_frac is not in the list because it is 0
// on every healthy run: it travels as the result line's failed/attempted.
var endToEnd = []decl{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "tok_per_s", unit: "tok/s", better: "higher", bound: 0.25},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "train_wire_bytes_per_step", unit: "B", fam: famTrain, better: "lower", bound: 0.01},
	{name: "train_peak_scratch_bytes", unit: "B", fam: famTrain, better: "lower", bound: 0.1},
	{name: "train_loss_final", unit: "nats", fam: famTrain, better: "lower", bound: 0.1},
}

// perLayer is the traced run's output: the ladder (direct calls into one
// layer's public functions at the workload's shapes), the span budget of the
// traced segments, and process counters.
var perLayer = []decl{
	{name: "corpus.gen_mtok_per_s", unit: "Mtok/s", better: "higher"},
	{name: "tensor.matmul_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.matmul_atb_acc_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.matmul_abt_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.abt_stream_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.abt_stream_q8_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "tensor.parallel_speedup_q8", unit: "ratio", better: "higher"},
	{name: "tensor.scatter_add_ns_per_row", unit: "ns", better: "lower"},
	{name: "model.fwdbwd_ms", unit: "ms", better: "lower"},
	{name: "model.decode_step_b1_ms", unit: "ms", better: "lower"},
	{name: "model.decode_step_b8_ms", unit: "ms", better: "lower"},
	{name: "sampling.candidates_us", unit: "us", better: "lower"},
	{name: "sampling.decode_us_per_tok", unit: "us", better: "lower"},
	{name: "half.roundtrip_ns_per_elem", unit: "ns", better: "lower"},
	{name: "collective.allreduce_dense_ms", unit: "ms", better: "lower"},
	{name: "collective.allreduce_share", unit: "frac", fam: famTrain, better: "lower"},
	{name: "collective.allgather_share", unit: "frac", fam: famTrain, better: "lower"},
	{name: "collective.calls_per_step", unit: "count", fam: famTrain, better: "lower"},
	{name: "collective.bytes_per_step", unit: "B", fam: famTrain, better: "lower"},
	{name: "core.exchange_unique_ms", unit: "ms", better: "lower"},
	{name: "core.exchange_baseline_ms", unit: "ms", better: "lower"},
	{name: "core.update_apply_us", unit: "us", better: "lower"},
	{name: "core.in_unique", unit: "count", better: "lower"},
	{name: "core.out_unique", unit: "count", better: "lower"},
	{name: "core.dedup_ratio_in", unit: "ratio", better: "higher"},
	{name: "core.wire_bytes_unique", unit: "B", better: "lower"},
	{name: "core.wire_bytes_baseline", unit: "B", better: "lower"},
	{name: "core.scratch_bytes_unique", unit: "B", better: "lower"},
	{name: "core.scratch_bytes_baseline", unit: "B", better: "lower"},
	{name: "optim.step_ms", unit: "ms", better: "lower"},
	{name: "ckpt.stall_share", unit: "frac", fam: famTrain, better: "lower"},
	{name: "ckpt.save_mb_per_s", unit: "MB/s", fam: famTrain, better: "higher"},
	{name: "ckpt.load_mb_per_s", unit: "MB/s", fam: famTrain, better: "higher"},
	{name: "ckpt.file_bytes", unit: "B", fam: famTrain, better: "lower"},
	{name: "trainer.compute_share", unit: "frac", fam: famTrain, better: "higher"},
	{name: "trainer.sync_share", unit: "frac", fam: famTrain, better: "lower"},
	{name: "trainer.g1_tok_per_s", unit: "tok/s", fam: famTrain, better: "higher"},
	{name: "serve.queue_share", unit: "frac", fam: famServe, better: "lower"},
	{name: "serve.prefill_share", unit: "frac", fam: famServe, better: "lower"},
	{name: "serve.decode_share", unit: "frac", fam: famServe, better: "lower"},
	{name: "serve.queue_p95_share", unit: "frac", fam: famServe, better: "lower"},
	{name: "serve.mean_batch", unit: "count", fam: famServe, better: "higher"},
	{name: "serve.result_hit_ratio", unit: "ratio", fam: famServe, better: "higher"},
	{name: "serve.prefix_hit_ratio", unit: "ratio", fam: famServe, better: "higher"},
	{name: "serve.shed", unit: "count", fam: famServe, better: "lower"},
	{name: "serve.expired", unit: "count", fam: famServe, better: "lower"},
	{name: "serve.gen_lateness_p95_frac", unit: "frac", fam: famServe, better: "lower"},
	{name: "serve.backlog_at_end", unit: "count", fam: famServe, better: "lower"},
	{name: "op.p50_ms", unit: "ms", better: "lower"},
	{name: "op.p95_ms", unit: "ms", better: "lower"},
	{name: "op.alloc_bytes", unit: "B", better: "lower"},
	{name: "op.mallocs", unit: "count", better: "lower"},
	{name: "trace.unattributed_frac", unit: "frac", better: "lower"},
	{name: "telemetry.trace_overhead_frac", unit: "frac", better: "lower"},
	{name: "proc.heap_sys_mb", unit: "MB", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
}

// metric is one emitted value. N is the number of samples behind it: segments
// or operations for a value over segments, timed groups for a ladder rung, 1
// for a count read once.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// values collects what a workload measured, by metric name.
type values map[string]metric

func (v values) set(name string, value float64, n int) {
	v[name] = metric{Name: name, Value: value, N: n}
}

// resolve turns measured values into the declared list, in declared order:
// each declared name exactly once, with its unit. A metric of the workload's
// own family that was not measured is a harness bug and fails the run.
func resolve(decls []decl, fam family, na float64, got values) ([]metric, error) {
	out := make([]metric, 0, len(decls))
	for _, d := range decls {
		m, ok := got[d.name]
		switch {
		case d.fam != famAll && d.fam != fam:
			m = metric{Name: d.name, Value: na}
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("metric %s is not finite: %v", d.name, m.Value)
		}
		m.Unit = d.unit
		out = append(out, m)
	}
	return out, nil
}

// median returns the middle value (mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// sample is what every workload measures in one segment.
type sample struct {
	wall, cpu float64   // seconds
	tokens    float64   // trained or delivered
	latMs     []float64 // one per operation
	// slow is the host's slowdown factor over the segment: the mean of a
	// probe just before it and one just after it (probe.go).
	slow float64
}

// pool adds segments up on the reference host's clock: each segment's times
// are divided by its slowdown factor first, so a segment that ran while the
// host was 1.5x slow counts as much work in as much time as a quiet one.
func pool(segs []sample) sample {
	var t sample
	for _, s := range segs {
		t.wall += s.wall / s.slow
		t.cpu += s.cpu / s.slow
		t.tokens += s.tokens
		for _, l := range s.latMs {
			t.latMs = append(t.latMs, l/s.slow)
		}
	}
	return t
}

// opMetrics sets the four wall-clock end-to-end metrics on the reference
// host's clock. Throughput, CPU time and the median pool all of a run's
// segments. The tail is each segment's own 95th percentile, averaged over the
// half of the segments where it was lowest: a burst of host interference
// shorter than a segment lifts the latencies it lands on and nothing else,
// the segment's mean slowdown factor cannot take that out again, a pooled p95
// is made of exactly those latencies, and interference only ever adds time.
// Over thirty runs the open loop's pooled p95 spread 26% and the median of
// its segment p95s 19%; read this way, 15% (closed loop: 17%, 14%, 4%).
func opMetrics(got values, segs []sample) {
	q := pool(segs)
	n := len(q.latMs)
	got.set("tok_per_s", q.tokens/q.wall, n)
	got.set("cpu_ms_per_op", 1e3*q.cpu/float64(n), n)
	got.set("op_p50_ms", percentile(q.latMs, 50), n)
	tails := make([]float64, len(segs))
	for i, s := range segs {
		tails[i] = percentile(s.latMs, 95) / s.slow
	}
	sort.Float64s(tails)
	tails = tails[:(len(tails)+1)/2]
	got.set("op_p95_ms", sum(tails)/float64(len(tails)), n)
}

// traceOverhead is the traced twin's median operation latency over the
// untraced reference's, minus one.
func traceOverhead(traced, plain []sample) float64 {
	p50 := func(segs []sample) float64 { return percentile(pool(segs).latMs, 50) }
	return p50(traced)/p50(plain) - 1
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// cpuSeconds is the process's user+system CPU time so far. Wall time on a
// shared host includes steal; CPU time does not, which makes it a second
// witness that moves with kernels and allocation but not with overlap.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gate is one correctness gate or regime assertion, printed with the metrics.
// A failed correctness gate (an output is wrong) fails every run. A regime
// assertion says the workload still exercises what it exists for; it depends
// on the seed's draw and on host timing, so it warns, and fails the run only
// under --strict.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Regime bool   `json:"regime,omitempty"`
	Detail string `json:"detail"`
}

// report is everything one workload produced in one run.
type report struct {
	Workload  string   `json:"workload"`
	Why       string   `json:"why"`
	Seed      uint64   `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	// Detail carries absolute numbers that explain the declared metrics
	// (span sums in ms, counts); printed, never gated.
	Detail []metric `json:"detail,omitempty"`
	Gates  []gate   `json:"gates"`
}

// correct reports whether every output passed its check and no operation
// failed: the run contract's "correct".
func (r *report) correct() bool {
	for _, g := range r.Gates {
		if !g.OK && !g.Regime {
			return false
		}
	}
	return r.Failed == 0
}

// inRegime reports whether every regime assertion held.
func (r *report) inRegime() bool {
	for _, g := range r.Gates {
		if !g.OK && g.Regime {
			return false
		}
	}
	return true
}

func (r *report) gate(name string, ok bool, format string, args ...any) {
	r.Gates = append(r.Gates, gate{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) regime(name string, ok bool, format string, args ...any) {
	r.Gates = append(r.Gates, gate{Name: "regime." + name, OK: ok, Regime: true, Detail: fmt.Sprintf(format, args...)})
}

func (r *report) detail(name, unit string, value float64, n int) {
	r.Detail = append(r.Detail, metric{Name: name, Value: value, Unit: unit, N: n})
}
