package trainer

import (
	"errors"
	"testing"

	"zipflm/internal/cluster"
	"zipflm/internal/core"
	"zipflm/internal/half"
	"zipflm/internal/israce"
	"zipflm/internal/model"
)

// TestOverlapStepAllocsIndependentOfDepth: an overlapped step hands the side
// lane part lists built once in New, so what it allocates (the per-step
// workers, closures and result slices) does not grow with the number of
// tensors a layer has. Before the lists were prebuilt, reduceDense gathered
// them into a 24-element stack array that spilled to the heap at RHN depth
// ≥ 6 (2 + 4·depth tensors): 170 allocations per step here at depth 3, 174
// at depth 7.
func TestOverlapStepAllocsIndependentOfDepth(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation guards are not meaningful under -race")
	}
	const parentAtDepth3 = 170
	train, valid := smallData(60, 12000, 9)
	var allocs [2]float64
	for i, depth := range []int{3, 7} {
		cfg := smallConfig(4, core.UniqueExchange{})
		cfg.Model.RNN = model.KindRHN
		cfg.Model.RHNDepth = depth
		cfg.Wire = half.NewScaler(512)
		cfg.Overlap = true
		tr, err := New(cfg, train, valid)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Steps(3); err != nil { // warm the workspaces and pools
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(10, func() {
			if err := tr.Steps(1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Errorf("overlapped step allocates %.0f objects at RHN depth 3 but %.0f at depth 7", allocs[0], allocs[1])
	}
	if allocs[0] > parentAtDepth3 {
		t.Errorf("overlapped step allocates %.0f objects at RHN depth 3, want ≤ %d", allocs[0], parentAtDepth3)
	}
}

// TestOverlapConverges sanity-checks that the overlapped path actually
// trains (loss falls), not just that it matches a broken twin.
func TestOverlapConverges(t *testing.T) {
	train, valid := smallData(60, 8000, 4)
	cfg := smallConfig(2, core.UniqueExchange{})
	cfg.Overlap = true
	tr, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Evals) < 2 || !(res.FinalLoss < res.Evals[0].Loss) {
		t.Errorf("overlapped training did not improve: %+v", res.Evals)
	}
}

// TestOverlapOOMAbortDrainsAsync: when the sparse exchange aborts (peer
// OOM) after the overlapped dense reductions, the step must fail cleanly
// and keep failing, not hang or corrupt.
func TestOverlapOOMAbortDrainsAsync(t *testing.T) {
	train, valid := smallData(60, 8000, 6)
	cfg := smallConfig(3, core.BaselineAllGather{})
	cfg.Model.Sampled = 10
	cfg.Overlap = true
	tr, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range tr.Cluster().Devices {
		d.Capacity = 600 // below the baseline's Θ(G·K·D) scratch
	}
	var oom *cluster.ErrOutOfMemory
	if err := tr.Steps(1); !errors.As(err, &oom) {
		t.Fatalf("got %v, want an OOM abort from the baseline exchange", err)
	}
	// A second attempt on the same trainer must fail the same way — no
	// half-finished ring left behind.
	if err := tr.Steps(1); !errors.As(err, &oom) {
		t.Fatalf("retry got %v, want the same OOM abort", err)
	}
}
