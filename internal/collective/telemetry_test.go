package collective

import (
	"testing"

	"zipflm/internal/half"
	"zipflm/internal/telemetry"
)

// TestTelemetryObservesWithoutPerturbing runs the same all-reduce with and
// without telemetry attached: results must be bit-identical, the telemetry
// byte and call counters must agree exactly with the Stats accounting, and
// the duration histogram holds one observation per operation.
func TestTelemetryObservesWithoutPerturbing(t *testing.T) {
	const g, n = 4, 257
	mk := func() [][]float32 {
		xs := make([][]float32, g)
		for r := range xs {
			xs[r] = make([]float32, n)
			for i := range xs[r] {
				xs[r][i] = float32(r+1) * float32(i%17) * 0.25
			}
		}
		return xs
	}

	plain := mk()
	cp := New(g)
	runRanks(g, func(rank int) { cp.AllReduce(rank, plain[rank], nil) })

	observed := mk()
	reg := telemetry.NewRegistry()
	ct := New(g)
	ct.AttachTelemetry(reg)
	runRanks(g, func(rank int) { ct.AllReduce(rank, observed[rank], nil) })

	for r := 0; r < g; r++ {
		for i := range plain[r] {
			if plain[r][i] != observed[r][i] {
				t.Fatalf("rank %d elem %d: %g (plain) != %g (telemetry on)", r, i, plain[r][i], observed[r][i])
			}
		}
	}

	var statBytes, statCalls int64
	for r := 0; r < g; r++ {
		s := ct.RankStats(r)
		statBytes += s.AllReduceBytes
		statCalls += s.AllReduceCalls
	}
	name := telemetry.Label(telemetry.Label("zipflm_collective_bytes_total", "op", "allreduce"), "wire", "fp32")
	if got := reg.Counter(name).Value(); got != statBytes {
		t.Fatalf("telemetry bytes %d != Stats bytes %d", got, statBytes)
	}
	callName := telemetry.Label(telemetry.Label("zipflm_collective_calls_total", "op", "allreduce"), "wire", "fp32")
	if got := reg.Counter(callName).Value(); got != statCalls {
		t.Fatalf("telemetry calls %d != Stats calls %d", got, statCalls)
	}
	// One all-reduce ran for the whole group: one duration observation.
	durName := telemetry.Label(telemetry.Label("zipflm_collective_seconds", "op", "allreduce"), "wire", "fp32")
	if got := reg.Duration(durName).Count(); got != 1 {
		t.Fatalf("duration histogram has %d observations, want 1 (one per operation)", got)
	}
}

// TestTelemetryWireLabels checks the wire-format label resolution, including
// the WireNamer hook on half.Scaler.
func TestTelemetryWireLabels(t *testing.T) {
	if wireLabel(nil) != "fp32" {
		t.Errorf("nil wire label = %q, want fp32", wireLabel(nil))
	}
	if got := wireLabel(half.NewScaler(1024)); got != "fp16" {
		t.Errorf("Scaler label = %q, want fp16", got)
	}
	type anon struct{ Wire }
	if got := wireLabel(anon{}); got != "custom" {
		t.Errorf("unnamed wire label = %q, want custom", got)
	}

	const g = 2
	reg := telemetry.NewRegistry()
	c := New(g)
	c.AttachTelemetry(reg)
	xs := make([][]float32, g)
	for r := range xs {
		xs[r] = make([]float32, 64)
		for i := range xs[r] {
			xs[r][i] = float32(i)
		}
	}
	fp16 := half.NewScaler(1024)
	runRanks(g, func(rank int) { c.AllReduce(rank, xs[rank], fp16) })
	name := telemetry.Label(telemetry.Label("zipflm_collective_calls_total", "op", "allreduce"), "wire", "fp16")
	if got := reg.Counter(name).Value(); got != g {
		t.Fatalf("fp16-labelled calls = %d, want %d", got, g)
	}
}

// TestTelemetryPartsAndGather: a part list counts one call per tensor per
// rank, like Stats, and the batched gathers post one call per rank.
func TestTelemetryPartsAndGather(t *testing.T) {
	const g = 2
	reg := telemetry.NewRegistry()
	c := New(g)
	c.AttachTelemetry(reg)

	parts := make([][][]float32, g)
	ints := make([][]int, g)
	floats := make([][]float32, g)
	for r := range parts {
		x := make([]float32, 32)
		parts[r] = [][]float32{x[:20], x[20:]}
		ints[r], floats[r] = []int{r}, x[:4]
	}
	c.AllReduceRanks(parts, nil)
	c.AllGatherIntsRanks(ints)
	c.AllGatherFloatsRanks(floats, nil)

	for op, want := range map[string]int64{"allreduce": 2 * g, "allgather_ints": g, "allgather_floats": g} {
		wire := "fp32"
		if op == "allgather_ints" {
			wire = "int32"
		}
		name := telemetry.Label(telemetry.Label("zipflm_collective_calls_total", "op", op), "wire", wire)
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s calls = %d, want %d", op, got, want)
		}
	}
}
