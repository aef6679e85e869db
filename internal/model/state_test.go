package model

import (
	"math"
	"testing"

	"zipflm/internal/rng"
	"zipflm/internal/tensor"
)

// randSeq builds T random B×D inputs.
func randSeq(r *rng.RNG, t, b, d int) []*tensor.Matrix {
	xs := make([]*tensor.Matrix, t)
	for i := range xs {
		x := tensor.NewMatrix(b, d)
		x.RandomizeNormal(r, 1)
		xs[i] = x
	}
	return xs
}

// TestLSTMCarryEqualsConcat: running two carried chunks must reproduce the
// hidden states of one run over the concatenated sequence exactly.
func TestLSTMCarryEqualsConcat(t *testing.T) {
	r := rng.New(1)
	whole := newLSTM(4, 6, rng.New(9), testCarver())
	chunked := newLSTM(4, 6, rng.New(9), testCarver())
	chunked.SetCarry(true)

	xs := randSeq(r, 8, 3, 4)
	want := forwardSteps(whole, xs)

	got1 := forwardSteps(chunked, xs[:5])
	got2 := forwardSteps(chunked, xs[5:])
	got := append(append([]*tensor.Matrix{}, got1...), got2...)
	for step := range want {
		for i := range want[step].Data {
			if want[step].Data[i] != got[step].Data[i] {
				t.Fatalf("step %d elem %d: %v vs %v", step, i, want[step].Data[i], got[step].Data[i])
			}
		}
	}
}

// TestRHNCarryEqualsConcat is the RHN counterpart.
func TestRHNCarryEqualsConcat(t *testing.T) {
	r := rng.New(2)
	whole := newRHN(4, 5, 3, rng.New(11), testCarver())
	chunked := newRHN(4, 5, 3, rng.New(11), testCarver())
	chunked.SetCarry(true)

	xs := randSeq(r, 6, 2, 4)
	want := forwardSteps(whole, xs)
	got1 := forwardSteps(chunked, xs[:2])
	got2 := forwardSteps(chunked, xs[2:])
	got := append(append([]*tensor.Matrix{}, got1...), got2...)
	for step := range want {
		for i := range want[step].Data {
			if want[step].Data[i] != got[step].Data[i] {
				t.Fatalf("step %d elem %d: %v vs %v", step, i, want[step].Data[i], got[step].Data[i])
			}
		}
	}
}

func TestResetStateRestoresZeroStart(t *testing.T) {
	r := rng.New(3)
	l := newLSTM(4, 6, rng.New(5), testCarver())
	l.SetCarry(true)
	xs := randSeq(r, 4, 2, 4)
	first := forwardSteps(l, xs)
	firstCopy := make([]float32, len(first[0].Data))
	copy(firstCopy, first[0].Data)

	forwardSteps(l, xs) // state now non-zero
	l.ResetState()
	again := forwardSteps(l, xs)
	for i := range firstCopy {
		if again[0].Data[i] != firstCopy[i] {
			t.Fatal("ResetState did not restore zero-state behaviour")
		}
	}
}

func TestSnapshotRestoreState(t *testing.T) {
	r := rng.New(4)
	l := newRHN(3, 4, 2, rng.New(6), testCarver())
	l.SetCarry(true)
	xs := randSeq(r, 3, 2, 3)
	forwardSteps(l, xs)
	snap := l.SnapshotState()

	// Perturb the state, then restore.
	other := randSeq(r, 3, 2, 3)
	forwardSteps(l, other)
	afterPerturb := forwardSteps(l, xs)[0].Clone()
	l.RestoreState(snap)
	afterRestore := forwardSteps(l, xs)[0]

	same := true
	for i := range afterRestore.Data {
		if afterRestore.Data[i] != afterPerturb.Data[i] {
			same = false
		}
	}
	if same {
		t.Fatal("snapshot/restore had no effect (states identical by accident?)")
	}

	// Restoring the snapshot again must reproduce afterRestore exactly.
	l.RestoreState(snap)
	again := forwardSteps(l, xs)[0]
	for i := range again.Data {
		if again.Data[i] != afterRestore.Data[i] {
			t.Fatal("RestoreState not reproducible")
		}
	}
}

func TestDisablingCarryClearsState(t *testing.T) {
	r := rng.New(5)
	l := newLSTM(3, 4, rng.New(7), testCarver())
	l.SetCarry(true)
	xs := randSeq(r, 3, 2, 3)
	zeroStart := forwardSteps(l, xs)[0].Clone()
	l.SetCarry(false)
	l.SetCarry(true)
	fresh := forwardSteps(l, xs)[0]
	for i := range fresh.Data {
		if fresh.Data[i] != zeroStart.Data[i] {
			t.Fatal("SetCarry(false) did not clear carried state")
		}
	}
}

// TestStatefulEvalDoesNotDisturbTraining: EvalLoss must snapshot and restore
// the carried state around its own forwards.
func TestStatefulEvalDoesNotDisturbTraining(t *testing.T) {
	cfg := Config{Vocab: 30, Dim: 6, Hidden: 8, RNN: KindLSTM, Stateful: true, Seed: 2}
	m := NewLM(cfg)
	inputs := [][]int{{1, 2}, {3, 4}, {5, 6}}
	targets := [][]int{{2, 3}, {4, 5}, {6, 7}}
	m.ZeroGrads()
	m.ForwardBackward(inputs, targets, nil) // leaves carried state

	stream := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	l1, _ := m.EvalLoss(stream, 4)

	// Running the same step again must produce the same result whether or
	// not an eval happened in between (state restored).
	ref := m.Clone()
	ref.ZeroGrads()
	ref.ForwardBackward(inputs, targets, nil)
	refStep := ref.ForwardBackward(inputs, targets, nil)

	m.ZeroGrads()
	_ = l1
	mStep := m.ForwardBackward(inputs, targets, nil)
	if math.Abs(mStep.LossSum-refStep.LossSum) > 1e-9 {
		t.Fatalf("eval disturbed training state: %v vs %v", mStep.LossSum, refStep.LossSum)
	}
}

// TestStatefulEvalCarriesWithinStream: with carry enabled, evaluating a
// predictable stream in small chunks must beat chunk-isolated evaluation on
// context that crosses chunk boundaries. We check it runs and returns
// finite loss over minimal chunks.
func TestStatefulEvalChunked(t *testing.T) {
	cfg := Config{Vocab: 20, Dim: 5, Hidden: 6, RNN: KindRHN, RHNDepth: 2, Stateful: true, Seed: 3}
	m := NewLM(cfg)
	stream := make([]int, 60)
	for i := range stream {
		stream[i] = i % 20
	}
	loss, count := m.EvalLoss(stream, 3)
	if count != 59 || math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("chunked stateful eval: loss=%v count=%d", loss, count)
	}
}
