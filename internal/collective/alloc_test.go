package collective

import (
	"testing"

	"zipflm/internal/half"
	"zipflm/internal/israce"
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
// the ring path: a full ring all-reduce across all ranks performs zero heap
// allocations, with one tensor (whose part list the lane owns) and with a
// caller-owned list of seventeen. A future PR reintroducing per-hop payload
// allocation, or a part list that escapes per call, fails here immediately.
func TestAllReduceZeroAllocSteadyState(t *testing.T) {
	skipIfRace(t)
	for _, wire := range []Wire{nil, half.NewScaler(256)} {
		g := 4
		c := New(g)
		xs := make([][]float32, g)
		lists := make([][][]float32, g)
		for r := range xs {
			xs[r] = make([]float32, 1000)
			for i := range xs[r] {
				xs[r][i] = float32(r + i)
			}
			for n := 0; n < 17; n++ {
				lists[r] = append(lists[r], make([]float32, 10*n))
			}
		}
		ops := map[string]func(rank int){
			"AllReduce":                func(rank int) { c.AllReduce(rank, xs[rank], wire) },
			"AllReduceParts(17 parts)": func(rank int) { c.AllReduceParts(rank, lists[rank], wire) },
		}
		for name, op := range ops {
			h := newAllocHarness(g, op)
			for i := 0; i < 3; i++ {
				h.round() // warm the arena
			}
			allocs := testing.AllocsPerRun(20, h.round)
			h.close()
			if allocs != 0 {
				t.Errorf("wire=%v: %s ring path allocates %.1f objects per round, want 0", wire != nil, name, allocs)
			}
		}
	}
}

// TestAllGatherIntsAllocBound guards the pooled blackboard path: the only
// permitted allocations are the caller-owned result slices (1 outer + G
// inner per rank); the stash and its recycling must not allocate at steady
// state.
func TestAllGatherIntsAllocBound(t *testing.T) {
	skipIfRace(t)
	g := 4
	c := New(g)
	local := make([][]int, g)
	for r := range local {
		local[r] = make([]int, 50+r)
	}
	h := newAllocHarness(g, func(rank int) {
		c.AllGatherInts(rank, local[rank])
	})
	for i := 0; i < 3; i++ {
		h.round()
	}
	allocs := testing.AllocsPerRun(20, h.round)
	h.close()
	limit := float64(g * (g + 1))
	if allocs > limit {
		t.Errorf("AllGatherInts allocates %.1f objects per round, want ≤ %.0f (result copies only)", allocs, limit)
	}
}

// TestAllGatherFloatsAllocBound is the float32 counterpart, FP16 wire
// included (RoundTrip must stay in place).
func TestAllGatherFloatsAllocBound(t *testing.T) {
	skipIfRace(t)
	for _, wire := range []Wire{nil, half.NewScaler(256)} {
		g := 4
		c := New(g)
		local := make([][]float32, g)
		for r := range local {
			local[r] = make([]float32, 200)
		}
		h := newAllocHarness(g, func(rank int) {
			c.AllGatherFloats(rank, local[rank], wire)
		})
		for i := 0; i < 3; i++ {
			h.round()
		}
		allocs := testing.AllocsPerRun(20, h.round)
		h.close()
		limit := float64(g * (g + 1))
		if allocs > limit {
			t.Errorf("wire=%v: AllGatherFloats allocates %.1f objects per round, want ≤ %.0f", wire != nil, allocs, limit)
		}
	}
}

// TestBroadcastAllocBound: the root stash is pooled; the only allocation
// per round is each rank's caller-owned copy of the payload.
func TestBroadcastAllocBound(t *testing.T) {
	skipIfRace(t)
	g := 4
	c := New(g)
	src := make([]float32, 300)
	h := newAllocHarness(g, func(rank int) {
		c.BroadcastFloatsVar(rank, 0, src)
	})
	for i := 0; i < 3; i++ {
		h.round()
	}
	allocs := testing.AllocsPerRun(20, h.round)
	h.close()
	if allocs > float64(g) {
		t.Errorf("BroadcastFloatsVar allocates %.1f objects per round, want ≤ %d (one copy per rank)", allocs, g)
	}
}
