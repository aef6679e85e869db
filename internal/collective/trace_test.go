package collective

import (
	"testing"

	"zipflm/internal/half"
	"zipflm/internal/telemetry"
)

// collectiveSpans lists the tracer's collective spans.
func collectiveSpans(tr *telemetry.Tracer) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range tr.Events() {
		if e.Cat == "collective" {
			out = append(out, e)
		}
	}
	return out
}

// TestTraceObservesWithoutPerturbing runs the same priced all-reduce with
// and without a tracer attached: the reduced values are bit-identical, the
// Stats accounting and the virtual clock agree exactly, and the traced run
// holds one span for the whole group on tid 0.
func TestTraceObservesWithoutPerturbing(t *testing.T) {
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
	wire := half.NewScaler(1024)

	plain := mk()
	cp, plainClock := newCostComm(g)
	runRanks(g, func(rank int) { cp.AllReduce(rank, plain[rank], wire) })

	observed := mk()
	ct, tracedClock := newCostComm(g)
	tr := telemetry.NewTracer(0)
	ct.AttachTrace(tr)
	runRanks(g, func(rank int) { ct.AllReduce(rank, observed[rank], wire) })

	for r := 0; r < g; r++ {
		for i := range plain[r] {
			if plain[r][i] != observed[r][i] {
				t.Fatalf("rank %d elem %d: %g (plain) != %g (traced)", r, i, plain[r][i], observed[r][i])
			}
		}
		if cp.RankStats(r) != ct.RankStats(r) {
			t.Fatalf("rank %d stats: %+v (plain) != %+v (traced)", r, cp.RankStats(r), ct.RankStats(r))
		}
	}
	if plainClock.Now() != tracedClock.Now() {
		t.Fatalf("virtual clock %v (plain) != %v (traced)", plainClock.Now(), tracedClock.Now())
	}
	spans := collectiveSpans(tr)
	if len(spans) != 1 {
		t.Fatalf("%d collective spans, want 1 (one per operation): %+v", len(spans), spans)
	}
	if e := spans[0]; e.Name != "allreduce" || e.Tid != 0 || e.Phase != 'X' {
		t.Fatalf("span %+v, want an allreduce span on tid 0", e)
	}
}

// TestTraceSpanCarriesVirtualCharge: a span starts at the cost model's
// clock when the operation began and lasts exactly the operation's charge.
func TestTraceSpanCarriesVirtualCharge(t *testing.T) {
	const g = 4
	c, clock := newCostComm(g)
	clock.AdvanceTo(2e-3)
	tr := telemetry.NewTracer(0)
	c.AttachTrace(tr)

	shapes := []int{1000, 10}
	tensors, _ := makeTensors(g, shapes, 3)
	c.AllReduceRanks(tensors, nil)

	spans := collectiveSpans(tr)
	if len(spans) != 1 {
		t.Fatalf("%d collective spans, want 1", len(spans))
	}
	e := spans[0]
	if e.VTS != 2e-3 {
		t.Errorf("span starts at virtual %v, want 2e-3", e.VTS)
	}
	if e.VDur != clock.Now()-2e-3 || e.VDur <= 0 {
		t.Errorf("span lasts virtual %v, want the charge %v", e.VDur, clock.Now()-2e-3)
	}
}

// TestTracePartsAndGather: a part list is one operation and one span, not
// one per tensor as Stats counts it; each batched gather posts one span
// named after its payload type. Without a cost model every span's virtual
// time is zero.
func TestTracePartsAndGather(t *testing.T) {
	const g = 2
	c := New(g)
	tr := telemetry.NewTracer(0)
	c.AttachTrace(tr)

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

	if calls := c.RankStats(0).AllReduceCalls; calls != 2 {
		t.Fatalf("Stats counted %d all-reduce calls, want 2 (one per tensor)", calls)
	}
	spans := collectiveSpans(tr)
	want := []string{"allreduce", "allgather_ints", "allgather_floats"}
	if len(spans) != len(want) {
		t.Fatalf("%d collective spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i, e := range spans {
		if e.Name != want[i] || e.Tid != 0 {
			t.Errorf("span %d: %s on tid %d, want %s on tid 0", i, e.Name, e.Tid, want[i])
		}
		if e.VTS != 0 || e.VDur != 0 {
			t.Errorf("span %s: virtual %v+%v without a cost model, want 0", e.Name, e.VTS, e.VDur)
		}
	}
}

// TestTraceDetach: AttachTrace(nil) stops the spans; the tracer keeps what
// it recorded before.
func TestTraceDetach(t *testing.T) {
	const g = 2
	c := New(g)
	tr := telemetry.NewTracer(0)
	c.AttachTrace(tr)
	runRanks(g, func(rank int) { c.AllReduce(rank, make([]float32, 8), nil) })
	c.AttachTrace(nil)
	runRanks(g, func(rank int) { c.AllReduce(rank, make([]float32, 8), nil) })
	c.AllGatherIntsRanks([][]int{{1}, {2}})

	if n := len(collectiveSpans(tr)); n != 1 {
		t.Fatalf("%d collective spans, want 1 (only the call made before detaching)", n)
	}
	if calls := c.RankStats(0).AllReduceCalls; calls != 2 {
		t.Fatalf("Stats counted %d all-reduce calls, want 2: detaching the tracer must not stop the accounting", calls)
	}
}

// TestTraceGatherSpanCarriesCharge: a batched gather's span lasts the ring
// all-gather priced at the largest payload, as the clock charged it.
func TestTraceGatherSpanCarriesCharge(t *testing.T) {
	const g = 3
	c, clock := newCostComm(g)
	tr := telemetry.NewTracer(0)
	c.AttachTrace(tr)
	c.AllGatherIntsRanks([][]int{make([]int, 2), make([]int, 7), make([]int, 4)})

	spans := collectiveSpans(tr)
	if len(spans) != 1 || spans[0].Name != "allgather_ints" {
		t.Fatalf("spans %+v, want one allgather_ints span", spans)
	}
	want := testLink.RingAllGatherSeconds(g, 4*7)
	if e := spans[0]; e.VTS != 0 || !eqTime(e.VDur, want) || e.VDur != clock.Now() {
		t.Errorf("span at virtual %v lasting %v, want 0 lasting %v (clock %v)", e.VTS, e.VDur, want, clock.Now())
	}
}
