package trainer

import (
	"testing"

	"zipflm/internal/compress"
	"zipflm/internal/core"
	"zipflm/internal/half"
	"zipflm/internal/israce"
	"zipflm/internal/model"
	"zipflm/internal/sampling"
)

// runPair trains the same workload twice — synchronous dense reduction vs
// the overlapped side-lane path — and returns both trainers after identical
// step counts.
func runPair(t *testing.T, cfg Config, train, valid []int, steps int) (syncTr, overlapTr *Trainer) {
	t.Helper()
	cfgSync := cfg
	cfgSync.Overlap = false
	cfgOv := cfg
	cfgOv.Overlap = true
	syncTr, err := New(cfgSync, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	overlapTr, err = New(cfgOv, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := syncTr.Steps(steps); err != nil {
		t.Fatal(err)
	}
	if err := overlapTr.Steps(steps); err != nil {
		t.Fatal(err)
	}
	return syncTr, overlapTr
}

// requireIdenticalModels asserts every parameter of both rank-0 replicas is
// bit-identical.
func requireIdenticalModels(t *testing.T, tag string, a, b *model.LM) {
	t.Helper()
	for i := range a.InEmb.Data {
		if a.InEmb.Data[i] != b.InEmb.Data[i] {
			t.Fatalf("%s: input embedding differs at %d: %v vs %v", tag, i, a.InEmb.Data[i], b.InEmb.Data[i])
		}
	}
	for i := range a.OutEmb.Data {
		if a.OutEmb.Data[i] != b.OutEmb.Data[i] {
			t.Fatalf("%s: output embedding differs at %d: %v vs %v", tag, i, a.OutEmb.Data[i], b.OutEmb.Data[i])
		}
	}
	ap, bp := a.DenseParams(), b.DenseParams()
	for pi := range ap {
		for i := range ap[pi].Value {
			if ap[pi].Value[i] != bp[pi].Value[i] {
				t.Fatalf("%s: %s differs at %d: %v vs %v", tag, ap[pi].Name, i, ap[pi].Value[i], bp[pi].Value[i])
			}
		}
	}
}

// TestOverlapBitIdenticalToSync is the acceptance test of overlap mode:
// reducing dense gradients from a side-lane worker, one fused pass per
// layer, must change nothing but wall-clock. Across cluster sizes, softmax
// modes, FP16 wire, exchange engines and a compressed run, the overlapped
// run produces bit-identical model replicas (every rank in sync, and rank 0
// equal to the synchronous run's rank 0) and bit-identical per-rank
// wire-byte counters.
func TestOverlapBitIdenticalToSync(t *testing.T) {
	train, valid := smallData(60, 12000, 9)
	cases := []struct {
		name    string
		ranks   int
		sampled int
		fp16    bool
		topk    bool
		ex      core.Exchanger
	}{
		{name: "g2-full-softmax", ranks: 2},
		{name: "g3-sampled", ranks: 3, sampled: 12},
		{name: "g4-sampled-fp16", ranks: 4, sampled: 12, fp16: true},
		{name: "g4-full-fp16", ranks: 4, fp16: true},
		{name: "g3-full-topk", ranks: 3, topk: true},
		{name: "g2-baseline-engine", ranks: 2, sampled: 12, ex: core.BaselineAllGather{}},
		{name: "g1-degenerate", ranks: 1, sampled: 12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(tc.ranks, tc.ex)
			cfg.Model.Sampled = tc.sampled
			if tc.fp16 {
				cfg.Wire = half.NewScaler(512)
			}
			if tc.topk {
				cfg.Compress = &compress.Config{Method: compress.MethodTopK, Ratio: 0.05, MinElems: 1}
			}
			syncTr, overlapTr := runPair(t, cfg, train, valid, 4)
			if err := overlapTr.ReplicasInSync(); err != nil {
				t.Fatalf("overlap replicas diverged: %v", err)
			}
			if err := syncTr.ReplicasInSync(); err != nil {
				t.Fatalf("sync replicas diverged: %v", err)
			}
			requireIdenticalModels(t, tc.name, syncTr.Model(0), overlapTr.Model(0))
			for r := 0; r < tc.ranks; r++ {
				ss, os := syncTr.Comm().RankStats(r), overlapTr.Comm().RankStats(r)
				if ss != os {
					t.Fatalf("rank %d wire stats diverge:\n sync    %+v\n overlap %+v", r, ss, os)
				}
			}
		})
	}
}

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
// OOM), the overlap path must still drain its side-lane worker before the
// step returns — otherwise peers' ring hops would keep reading the model's
// gradient tensors (zero-copy aliases) behind the aborted step, and the
// worker goroutine would outlive it. The -race CI job is what gives this
// test its teeth; functionally the step must fail cleanly and keep
// failing, not hang or corrupt.
func TestOverlapOOMAbortDrainsAsync(t *testing.T) {
	train, valid := smallData(60, 8000, 6)
	cfg := smallConfig(3, core.BaselineAllGather{})
	cfg.Model.Sampled = 10
	cfg.Overlap = true
	cfg.DeviceCapacity = 600 // below the baseline's Θ(G·K·D) scratch
	tr, err := New(cfg, train, valid)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Steps(1); err == nil {
		t.Fatal("expected an OOM abort from the baseline exchange")
	}
	// A second attempt on the same trainer must fail the same way — no
	// deadlock against a leftover worker, no half-finished side-lane ring.
	if err := tr.Steps(1); err == nil {
		t.Fatal("expected the retry to abort as well")
	}
}

// TestOverlapWithOptimizersAndClip covers the post-reduction pipeline
// (averaging, clipping, Adam state) staying bit-identical under overlap.
func TestOverlapWithOptimizersAndClip(t *testing.T) {
	train, valid := smallData(60, 10000, 5)
	cfg := smallConfig(3, core.UniqueExchange{})
	cfg.Model.Sampled = 10
	cfg.ClipNorm = 0.5
	cfg.SeedStrategy = sampling.AllSame
	syncTr, overlapTr := runPair(t, cfg, train, valid, 5)
	requireIdenticalModels(t, "clip", syncTr.Model(0), overlapTr.Model(0))
	if err := overlapTr.ReplicasInSync(); err != nil {
		t.Fatal(err)
	}
}
