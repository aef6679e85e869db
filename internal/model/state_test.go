package model

import (
	"fmt"
	"math"
	"slices"
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
	chunked.on = true

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
	chunked.on = true

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

// sameFloats reports whether a and b hold the same float32s bit for bit.
func sameFloats(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// carryModels are stateful configurations of each recurrent kind.
var carryModels = []struct {
	name string
	cfg  Config
}{
	{"lstm", Config{Vocab: 30, Dim: 6, Hidden: 8, RNN: KindLSTM, Stateful: true, Seed: 2}},
	{"rhn", Config{Vocab: 30, Dim: 6, Hidden: 8, RNN: KindRHN, RHNDepth: 2, Stateful: true, Seed: 2}},
}

// TestCarriedRNNStateRoundTrip: CarriedRNNState is a copy that later passes
// do not touch, SetCarriedRNNState installs a copy that a pass starts from
// exactly (again and again), and the zero value and ResetRNNState both
// return to a zero start.
func TestCarriedRNNStateRoundTrip(t *testing.T) {
	for _, tc := range carryModels {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(4)
			xs, other := randSeq(r, 3, 2, tc.cfg.Dim), randSeq(r, 3, 2, tc.cfg.Dim)
			first := func(m *LM) []float32 { return forwardSteps(m.rnn, xs)[0].Data }

			// ref: the outputs of a pass from zero and of the pass after it.
			ref := NewLM(tc.cfg)
			fromZero := first(ref)
			fromS1 := first(ref)

			m := NewLM(tc.cfg)
			first(m)
			s1 := m.CarriedRNNState()
			forwardSteps(m.rnn, other) // the state moves on; s1 must not
			if sameFloats(first(m), fromS1) {
				t.Fatal("the perturbing pass left the state where it was")
			}
			for i := 0; i < 2; i++ {
				if err := m.SetCarriedRNNState(s1); err != nil {
					t.Fatal(err)
				}
				if !sameFloats(first(m), fromS1) {
					t.Fatalf("restore %d: the pass did not start from the exported state", i)
				}
			}
			if err := m.SetCarriedRNNState(CarriedState{}); err != nil {
				t.Fatal(err)
			}
			if !sameFloats(first(m), fromZero) {
				t.Fatal("the zero CarriedState did not clear the carry")
			}
			m.ResetRNNState()
			if !sameFloats(first(m), fromZero) {
				t.Fatal("ResetRNNState did not clear the carry")
			}
		})
	}
}

// TestSetCarriedRNNStateRefusesInexact: a state that could not be restored
// exactly is an error and leaves the carry as it was — an LSTM state without
// its cell state, an RHN state with one, and shapes that disagree.
func TestSetCarriedRNNStateRefusesInexact(t *testing.T) {
	lstm, rhn := NewLM(carryModels[0].cfg), NewLM(carryModels[1].cfg)
	hid := lstm.Cfg.Hidden
	h := make([]float32, 2*hid)
	for _, tc := range []struct {
		name string
		m    *LM
		cs   CarriedState
	}{
		{"lstm without C", lstm, CarriedState{H: h, Rows: 2, Cols: hid}},
		{"lstm short C", lstm, CarriedState{H: h, C: h[:hid], Rows: 2, Cols: hid}},
		{"rhn with C", rhn, CarriedState{H: h, C: h, Rows: 2, Cols: hid}},
		{"rhn empty C", rhn, CarriedState{H: h, C: []float32{}, Rows: 2, Cols: hid}},
		{"short H", rhn, CarriedState{H: h[1:], Rows: 2, Cols: hid}},
		{"wrong width", rhn, CarriedState{H: h, Rows: 1, Cols: 2 * hid}},
		{"shape without H", rhn, CarriedState{Rows: 2, Cols: hid}},
		{"C without H", lstm, CarriedState{C: h}},
	} {
		if err := tc.m.SetCarriedRNNState(tc.cs); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if got := tc.m.CarriedRNNState(); got.H != nil || got.C != nil || got.Rows != 0 {
			t.Errorf("%s: a refused state was installed: %+v", tc.name, got)
		}
	}
	for _, tc := range []struct {
		m  *LM
		cs CarriedState
	}{{lstm, CarriedState{H: h, C: h, Rows: 2, Cols: hid}}, {rhn, CarriedState{H: h, Rows: 2, Cols: hid}}} {
		if err := tc.m.SetCarriedRNNState(tc.cs); err != nil {
			t.Errorf("%v: %v", tc.m.Cfg.RNN, err)
		}
	}
}

// TestStatefulEvalDoesNotDisturbTraining: EvalLoss runs from a zero state
// and hands the training carry back bit for bit, for both cells and for a
// training batch as wide as the evaluation's (1), where the carry's slices
// would otherwise be reused for the evaluation's state.
func TestStatefulEvalDoesNotDisturbTraining(t *testing.T) {
	stream := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for _, tc := range carryModels {
		for _, batch := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/batch=%d", tc.name, batch), func(t *testing.T) {
				inputs, targets := make([][]int, 3), make([][]int, 3)
				for step := range inputs {
					for b := 0; b < batch; b++ {
						inputs[step] = append(inputs[step], 1+step+5*b)
						targets[step] = append(targets[step], 2+step+5*b)
					}
				}
				m := NewLM(tc.cfg)
				fresh := NewLM(tc.cfg)
				wantLoss, _ := fresh.EvalLoss(stream, 4)
				m.ForwardBackward(inputs, targets, nil) // leaves a carried state
				before := m.CarriedRNNState()
				if loss, _ := m.EvalLoss(stream, 4); loss != wantLoss {
					t.Fatalf("evaluation did not start from zero: loss %v, want %v", loss, wantLoss)
				}
				after := m.CarriedRNNState()
				if after.Rows != batch || !sameFloats(after.H, before.H) || !sameFloats(after.C, before.C) {
					t.Fatalf("evaluation disturbed the training carry: %d rows, want %d", after.Rows, batch)
				}

				// The next step runs as it would have without the evaluation.
				ref := m.Clone()
				ref.ForwardBackward(inputs, targets, nil)
				want := ref.ForwardBackward(inputs, targets, nil).LossSum
				if got := m.ForwardBackward(inputs, targets, nil).LossSum; got != want {
					t.Fatalf("eval disturbed training state: %v vs %v", got, want)
				}
			})
		}
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
