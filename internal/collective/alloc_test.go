package collective

import (
	"testing"

	"zipflm/internal/half"
	"zipflm/internal/israce"
	"zipflm/internal/telemetry"
	"zipflm/internal/tensor"
)

// allocHarness drives one collective round per trigger on persistent rank
// goroutines, so testing.AllocsPerRun measures only the collective itself
// and not goroutine spawning.
type allocHarness struct {
	start []chan struct{}
	done  chan struct{}
	stop  chan struct{}
}

func newAllocHarness(g int, op func(rank int)) *allocHarness {
	h := &allocHarness{
		start: make([]chan struct{}, g),
		done:  make(chan struct{}, g),
		stop:  make(chan struct{}),
	}
	for r := 0; r < g; r++ {
		h.start[r] = make(chan struct{})
		go func(rank int) {
			for {
				select {
				case <-h.start[rank]:
					op(rank)
					h.done <- struct{}{}
				case <-h.stop:
					return
				}
			}
		}(r)
	}
	return h
}

// round triggers one collective on every rank and waits for completion.
func (h *allocHarness) round() {
	for _, ch := range h.start {
		ch <- struct{}{}
	}
	for range h.start {
		<-h.done
	}
}

func (h *allocHarness) close() { close(h.stop) }

// skipIfRace skips allocation guards under -race: the detector's
// instrumentation allocates and sync.Pool intentionally drops items there.
func skipIfRace(t *testing.T) {
	t.Helper()
	if israce.Enabled {
		t.Skip("allocation guards are not meaningful under -race")
	}
}

// TestAllReduceZeroAllocSteadyState is the allocation-regression guard on
// the all-reduce: neither the batched executor — with one tensor and with a
// list of seventeen — nor the per-rank adapter, whose part lists the
// communicator owns, performs a heap allocation, observed or not. The communicator lends
// a two-worker pool and the lists hold a tensor above
// tensor.ElementwiseMinWork, so the chunk sets' dispatch is measured too. A
// future PR that allocates per hop, or lets a part list or closure escape
// per call, fails here immediately.
func TestAllReduceZeroAllocSteadyState(t *testing.T) {
	skipIfRace(t)
	pool := tensor.NewParallel(2)
	defer pool.Close()
	for _, observed := range []bool{false, true} {
		for _, wire := range []Wire{nil, half.NewScaler(256)} {
			g := 4
			c := New(g)
			c.AttachBackend(pool)
			if observed {
				c.AttachTrace(telemetry.NewTracer(1)) // full after one span: later spans drop
			}
			xs := make([][]float32, g)
			one := make([][][]float32, g)
			lists := make([][][]float32, g)
			for r := range xs {
				xs[r] = make([]float32, tensor.ElementwiseMinWork+1000)
				for i := range xs[r] {
					xs[r][i] = float32(r + i)
				}
				one[r] = [][]float32{xs[r]}
				for n := 0; n < 17; n++ {
					lists[r] = append(lists[r], make([]float32, 10*n))
				}
			}
			adapter := newAllocHarness(g, func(rank int) { c.AllReduce(rank, xs[rank], wire) })
			ops := map[string]func(){
				"AllReduce adapter":        adapter.round,
				"AllReduceRanks(1 part)":   func() { c.AllReduceRanks(one, wire) },
				"AllReduceRanks(17 parts)": func() { c.AllReduceRanks(lists, wire) },
			}
			for name, op := range ops {
				for i := 0; i < 3; i++ {
					op() // warm up
				}
				if allocs := testing.AllocsPerRun(20, op); allocs != 0 {
					t.Errorf("observed=%v wire=%v: %s allocates %.1f objects per call, want 0", observed, wire != nil, name, allocs)
				}
			}
			adapter.close()
		}
	}
}

// TestAllGatherIntsAllocBound: the batched index gather only accounts —
// the caller holds the payloads — so it allocates nothing.
func TestAllGatherIntsAllocBound(t *testing.T) {
	skipIfRace(t)
	g := 4
	c := New(g)
	payloads := make([][]int, g)
	for r := range payloads {
		payloads[r] = make([]int, 50+r)
	}
	if allocs := testing.AllocsPerRun(20, func() { c.AllGatherIntsRanks(payloads) }); allocs != 0 {
		t.Errorf("AllGatherIntsRanks allocates %.1f objects per call, want 0", allocs)
	}
}

// TestAllGatherFloatsAllocBound is the float32 counterpart, FP16 wire
// included (RoundTrip must stay in place).
func TestAllGatherFloatsAllocBound(t *testing.T) {
	skipIfRace(t)
	for _, wire := range []Wire{nil, half.NewScaler(256)} {
		g := 4
		c := New(g)
		payloads := make([][]float32, g)
		for r := range payloads {
			payloads[r] = make([]float32, 200)
		}
		if allocs := testing.AllocsPerRun(20, func() { c.AllGatherFloatsRanks(payloads, wire) }); allocs != 0 {
			t.Errorf("wire=%v: AllGatherFloatsRanks allocates %.1f objects per call, want 0", wire != nil, allocs)
		}
	}
}
