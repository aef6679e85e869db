package core

import (
	"sync"
	"testing"

	"zipflm/internal/cluster"
	"zipflm/internal/collective"
	"zipflm/internal/perfmodel"
	"zipflm/internal/rng"
	"zipflm/internal/tensor"
)

// simExchange runs one exchange across g ranks with the virtual clock
// attached and returns each rank's Stats.
func simExchange(t *testing.T, ex Exchanger, g, k, d, vocab int, seed uint64) []Stats {
	t.Helper()
	clu := cluster.New(g, 0)
	comm := collective.New(g)
	hw := perfmodel.TitanX()
	comm.AttachCost(&collective.CostModel{Link: hw.RingLink(g), Clocks: clu.Clocks()})

	grads := make([]SparseGrad, g)
	root := rng.New(seed)
	for r := 0; r < g; r++ {
		rr := root.Fork()
		z := rng.NewZipf(rr, vocab, 1.2)
		idx := make([]int, k)
		for i := range idx {
			idx[i] = z.Next()
		}
		rows := tensor.NewMatrix(k, d)
		rows.RandomizeNormal(rr, 1)
		grads[r] = SparseGrad{Indices: idx, Rows: rows}
	}

	stats := make([]Stats, g)
	var wg sync.WaitGroup
	errs := make([]error, g)
	for r := 0; r < g; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ctx := &Ctx{Rank: rank, Comm: comm, Dev: clu.Devices[rank]}
			_, st, err := ex.Exchange(ctx, grads[rank])
			stats[rank] = st
			errs[rank] = err
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return stats
}

// TestExchangeSimSeconds: with a cost model attached, every engine reports
// a positive simulated duration, identical on every rank (the collectives
// max-synchronize), reproducible across runs, and matching the device
// clock.
func TestExchangeSimSeconds(t *testing.T) {
	const g, k, d, vocab = 4, 64, 16, 500
	engines := []Exchanger{BaselineAllGather{}, UniqueExchange{}}
	for _, ex := range engines {
		name := ex.Name()
		a := simExchange(t, ex, g, k, d, vocab, 7)
		if a[0].SimSeconds <= 0 {
			t.Errorf("%s: SimSeconds = %v, want > 0", name, a[0].SimSeconds)
		}
		b := simExchange(t, ex, g, k, d, vocab, 7)
		for r := range a {
			if a[r].SimSeconds != b[r].SimSeconds {
				t.Errorf("%s: rank %d sim time not reproducible: %v vs %v",
					name, r, a[r].SimSeconds, b[r].SimSeconds)
			}
		}
	}
	// Both engines end max-synchronized: equal SimSeconds on all ranks.
	for _, ex := range engines {
		st := simExchange(t, ex, g, k, d, vocab, 11)
		for r := 1; r < g; r++ {
			if st[r].SimSeconds != st[0].SimSeconds {
				t.Errorf("%s: rank %d sim %v != rank 0 %v", ex.Name(), r, st[r].SimSeconds, st[0].SimSeconds)
			}
		}
	}
}

// TestExchangeSimZeroWithoutClock: no cost model, no device → SimSeconds
// stays zero and nothing else changes.
func TestExchangeSimZeroWithoutClock(t *testing.T) {
	const g, k, d = 2, 8, 4
	comm := collective.New(g)
	grads := make([]SparseGrad, g)
	for r := range grads {
		rows := tensor.NewMatrix(k, d)
		idx := make([]int, k)
		grads[r] = SparseGrad{Indices: idx, Rows: rows}
	}
	var wg sync.WaitGroup
	stats := make([]Stats, g)
	for r := 0; r < g; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ctx := &Ctx{Rank: rank, Comm: comm}
			_, st, err := UniqueExchange{}.Exchange(ctx, grads[rank])
			if err != nil {
				t.Error(err)
			}
			stats[rank] = st
		}(r)
	}
	wg.Wait()
	for r, st := range stats {
		if st.SimSeconds != 0 {
			t.Errorf("rank %d: SimSeconds = %v without a clock", r, st.SimSeconds)
		}
	}
}
