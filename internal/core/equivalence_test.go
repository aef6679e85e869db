package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"zipflm/internal/collective"
	"zipflm/internal/half"
	"zipflm/internal/rng"
)

// runExchangeWS is runExchange with per-rank workspaces that persist across
// calls, exercising the pooled-scratch path the trainer uses. Passing the
// same wss into consecutive calls reuses warm scratch, which is exactly
// where stale-state bugs would surface.
func runExchangeWS(t *testing.T, ex Exchanger, grads []SparseGrad, wire collective.Wire, wss []*Workspace) []Update {
	t.Helper()
	g := len(grads)
	comm := collective.New(g)
	updates := make([]Update, g)
	errs := make([]error, g)
	var wg sync.WaitGroup
	for r := 0; r < g; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ctx := &Ctx{Rank: rank, Comm: comm, Wire: wire, WS: wss[rank]}
			updates[rank], _, errs[rank] = ex.Exchange(ctx, grads[rank])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return updates
}

// maxAbsRef returns the largest-magnitude reference accumulation, the scale
// FP16 tolerances are relative to.
func maxAbsRef(ref map[int][]float64) float64 {
	m := 1.0
	for _, row := range ref {
		for _, v := range row {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
	}
	return m
}

// TestCrossEngineEquivalenceProperty is the randomized, seeded, table-driven
// version of the paper's §V-A equivalence claim, extended to the FP16 wire:
// for arbitrary (G, K, D, vocab, FP16) the baseline and unique exchanges
// must produce the same sorted unique index set, per-engine bit-identical
// updates on every rank, and
// rows that agree with the serial float64 reference within the precision of
// the wire. Engines run twice on persistent per-rank workspaces so warm
// (reused) scratch is what's actually tested.
func TestCrossEngineEquivalenceProperty(t *testing.T) {
	r := rng.New(20260728)
	type shape struct {
		g, k, d, vocab int
		fp16           bool
	}
	shapes := []shape{
		// Pinned corner cases: single rank, single token, one column,
		// tiny vocab (maximum duplication).
		{g: 1, k: 5, d: 3, vocab: 10},
		{g: 4, k: 1, d: 1, vocab: 2},
		{g: 5, k: 30, d: 4, vocab: 3, fp16: true},
		{g: 6, k: 16, d: 2, vocab: 40},
	}
	for len(shapes) < 24 {
		g := int(r.Uint64()%6) + 1
		shapes = append(shapes, shape{
			g:     g,
			k:     int(r.Uint64()%40) + 1,
			d:     int(r.Uint64()%8) + 1,
			vocab: int(r.Uint64()%50) + 2,
			fp16:  r.Uint64()%2 == 0,
		})
	}
	for i, s := range shapes {
		s := s
		t.Run(fmt.Sprintf("case%02d_g%d_k%d_d%d_v%d_fp16%v", i, s.g, s.k, s.d, s.vocab, s.fp16), func(t *testing.T) {
			var wire collective.Wire
			if s.fp16 {
				wire = half.NewScaler(256)
			}
			engines := []Exchanger{BaselineAllGather{}, UniqueExchange{}}
			// Persistent workspaces; warm them on a different shape first.
			wss := make([]*Workspace, s.g)
			for r := range wss {
				wss[r] = NewWorkspace()
			}
			warm := makeGrads(s.g, s.k/2+1, s.d+1, s.vocab, uint64(i)+99)
			for _, ex := range engines {
				runExchangeWS(t, ex, warm, nil, wss)
			}

			grads := makeGrads(s.g, s.k, s.d, s.vocab, uint64(i)+1)
			ref := referenceUpdate(grads)
			tol := 1e-3
			if s.fp16 {
				// Per-hop FP16 rounding compounds over ring steps; scale
				// the tolerance to the largest accumulated magnitude.
				tol = 0.05 * maxAbsRef(ref)
			}
			results := make([][]Update, len(engines))
			for ei, ex := range engines {
				updates := runExchangeWS(t, ex, grads, wire, wss)
				results[ei] = updates
				// Every rank of one engine must agree bit for bit — the
				// §II-B invariant that keeps replicas in sync.
				for r := 1; r < s.g; r++ {
					if len(updates[r].Indices) != len(updates[0].Indices) {
						t.Fatalf("%s: rank %d index count differs", ex.Name(), r)
					}
					for j := range updates[0].Indices {
						if updates[r].Indices[j] != updates[0].Indices[j] {
							t.Fatalf("%s: rank %d index %d differs", ex.Name(), r, j)
						}
					}
					for j := range updates[0].Rows.Data {
						if updates[r].Rows.Data[j] != updates[0].Rows.Data[j] {
							t.Fatalf("%s: rank %d row data %d not bit-identical", ex.Name(), r, j)
						}
					}
				}
				checkAgainstReference(t, ex.Name(), updates[0], ref, tol)
			}
			// Cross-engine: identical index sets (exact), rows already
			// pinned to the shared reference above.
			for ei := 1; ei < len(engines); ei++ {
				a, b := results[0][0], results[ei][0]
				if len(a.Indices) != len(b.Indices) {
					t.Fatalf("%s vs %s: unique sets differ in size", engines[0].Name(), engines[ei].Name())
				}
				for j := range a.Indices {
					if a.Indices[j] != b.Indices[j] {
						t.Fatalf("%s vs %s: index %d differs", engines[0].Name(), engines[ei].Name(), j)
					}
				}
			}
		})
	}
}
