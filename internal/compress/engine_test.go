package compress

import (
	"math"
	"testing"

	"zipflm/internal/collective"
	"zipflm/internal/half"
)

// step reduces one named tensor across the group, grads[r] being rank r's,
// the way the trainer drives it: one caller for every rank.
func step(t *testing.T, comm *collective.Comm, gr *Group, name string, grads [][]float32) {
	t.Helper()
	parts := make([][][]float32, len(grads))
	for r, g := range grads {
		parts[r] = [][]float32{g}
	}
	if err := gr.AllReduce(comm, []string{name}, parts); err != nil {
		t.Fatal(err)
	}
}

func newGroup(t *testing.T, g int, cfg Config, base collective.Wire) *Group {
	t.Helper()
	cc, err := cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	return NewGroup(cc, base, g)
}

// TestGroupTopKDecodesEveryPayloadIntoRankZero: a top-k tensor's result is
// every rank's payload — what its engine encoded this step — decoded in rank
// order into zeros, on rank 0, whatever rank 0's buffer held before.
func TestGroupTopKDecodesEveryPayloadIntoRankZero(t *testing.T) {
	const g, n = 4, 600
	for _, base := range []collective.Wire{nil, half.NewScaler(256)} {
		comm := collective.New(g)
		gr := newGroup(t, g, Config{Method: MethodTopK, Ratio: 0.05, Momentum: 0.9, MinElems: 1}, base)
		grads := make([][]float32, g)
		for s := 0; s < 5; s++ {
			for r := range grads {
				grads[r] = randVec(n, uint64(100*s+r))
			}
			step(t, comm, gr, "w", grads)
			want := make([]float32, n)
			for r, e := range gr.engines {
				if err := (TopKDecoder{}).DecodeAdd(want, e.payload); err != nil {
					t.Fatalf("rank %d payload: %v", r, err)
				}
			}
			for i := range want {
				if grads[0][i] != want[i] {
					t.Fatalf("step %d: rank 0 holds %v at %d, the decoded payloads sum to %v", s, grads[0][i], i, want[i])
				}
			}
		}
	}
}

// TestEngineErrorFeedbackConserves checks the defining property of error
// feedback: nothing is lost, only delayed. Over any prefix of steps, what
// was delivered plus what every rank still carries equals the raw gradient
// sum.
func TestEngineErrorFeedbackConserves(t *testing.T) {
	const g, n, steps = 2, 400, 6
	comm := collective.New(g)
	gr := newGroup(t, g, Config{Method: MethodTopK, Ratio: 0.02, MinElems: 1}, nil)

	total := make([]float64, n)     // Σ raw gradients over ranks and steps
	delivered := make([]float64, n) // Σ reduced results over steps
	grads := make([][]float32, g)
	for s := 0; s < steps; s++ {
		for r := range grads {
			grads[r] = randVec(n, uint64(7000+10*s+r))
			for i, v := range grads[r] {
				total[i] += float64(v)
			}
		}
		step(t, comm, gr, "w", grads)
		for i, v := range grads[0] {
			delivered[i] += float64(v)
		}
	}
	for i := range total {
		var carried float64
		for _, e := range gr.engines {
			carried += float64(e.carries["w"].resid[i])
		}
		if diff := math.Abs(delivered[i] + carried - total[i]); diff > 1e-3 {
			t.Fatalf("element %d leaks gradient mass: delivered %v + carried %v != total %v (diff %v)",
				i, delivered[i], carried, total[i], diff)
		}
	}
}

func TestEngineSmallTensorsUncompressed(t *testing.T) {
	const g = 2
	comm := collective.New(g)
	gr := newGroup(t, g, Config{Method: MethodTopK, Ratio: 0.01, MinElems: 1000}, nil)
	grads := [][]float32{randVec(64, 1), randVec(64, 2)}
	want := make([]float32, 64)
	for i := range want {
		want[i] = grads[0][i] + grads[1][i]
	}
	step(t, comm, gr, "bias", grads)
	for i := range want {
		if grads[0][i] != want[i] {
			t.Fatalf("small tensor lossy at %d: %v vs exact %v", i, grads[0][i], want[i])
		}
	}
	if len(gr.engines[0].carries) != 0 {
		t.Fatalf("uncompressed tensor grew a residual carry")
	}
}

func TestEngineQuant8CheaperThanFP16(t *testing.T) {
	const g, n = 4, 4096
	run := func(cfg Config, base collective.Wire) int64 {
		comm := collective.New(g)
		gr := newGroup(t, g, cfg, base)
		grads := make([][]float32, g)
		for r := range grads {
			grads[r] = randVec(n, uint64(r))
		}
		step(t, comm, gr, "w", grads)
		return comm.MaxStats().AllReduceBytes
	}
	fp32 := run(Config{Method: MethodNone}, nil)
	fp16 := run(Config{Method: MethodNone}, half.NewScaler(256))
	q8 := run(Config{Method: MethodQuant8, MinElems: 1, Stochastic: true, Seed: 3}, nil)
	if !(q8 < fp16 && fp16 < fp32) {
		t.Fatalf("wire bytes not ordered: q8 %d, fp16 %d, fp32 %d", q8, fp16, fp32)
	}
}

// TestEngineSnapshotRestore: a group restored from a snapshot must produce
// the byte-identical future the original would have.
func TestEngineSnapshotRestore(t *testing.T) {
	const g, n = 2, 512
	cfg := Config{Method: MethodTopK, Ratio: 0.03, Momentum: 0.8, MinElems: 1}
	commA := collective.New(g)
	groupA := newGroup(t, g, cfg, nil)
	gradAt := func(s, r int) []float32 { return randVec(n, uint64(31*s+r)) }

	grads := make([][]float32, g)
	for s := 0; s < 3; s++ {
		for r := range grads {
			grads[r] = gradAt(s, r)
		}
		step(t, commA, groupA, "w", grads)
	}
	snaps := groupA.Snapshot()

	// A fresh group restored mid-run.
	commB := collective.New(g)
	groupB := newGroup(t, g, cfg, nil)
	if err := groupB.Restore(snaps); err != nil {
		t.Fatal(err)
	}
	for s := 3; s < 6; s++ {
		a := make([][]float32, g)
		b := make([][]float32, g)
		for r := 0; r < g; r++ {
			a[r] = gradAt(s, r)
			b[r] = gradAt(s, r)
		}
		step(t, commA, groupA, "w", a)
		step(t, commB, groupB, "w", b)
		for i := range a[0] {
			if a[0][i] != b[0][i] {
				t.Fatalf("step %d: restored group diverges at %d: %v vs %v", s, i, b[0][i], a[0][i])
			}
		}
	}

	// Snapshot mutation safety: later steps must not alter the capture.
	again := groupA.Snapshot()
	if len(again[0].Tensors) != 1 || len(snaps[0].Tensors) != 1 {
		t.Fatalf("unexpected tensor counts in snapshots")
	}
	same := true
	for i, v := range snaps[0].Tensors[0].Residual {
		if again[0].Tensors[0].Residual[i] != v {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("residual did not evolve after 3 more steps — snapshot likely aliases live state")
	}
}

func TestEngineRestoreRejectsMismatch(t *testing.T) {
	cc, _ := Config{Method: MethodQuant8, Stochastic: true}.Validate()
	if err := NewGroup(cc, nil, 1).Restore([]EngineState{{}}); err == nil {
		t.Fatal("quantizing engine accepted a snapshot with no RNG stream")
	}
	cc2, _ := Config{Method: MethodTopK, Ratio: 0.1}.Validate()
	err := NewGroup(cc2, nil, 1).Restore([]EngineState{{Tensors: []TensorState{{Name: "w", Residual: make([]float32, 4), Momentum: make([]float32, 4)}}}})
	if err == nil {
		t.Fatal("momentum-off engine accepted momentum state")
	}
	if err := NewGroup(cc2, nil, 2).Restore([]EngineState{{}}); err == nil {
		t.Fatal("a group of 2 accepted one rank's state")
	}
}
