package model

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"zipflm/internal/core"

	"zipflm/internal/rng"
	"zipflm/internal/sampling"
	"zipflm/internal/tensor"
)

// Central differences of a float32 forward pass: the loss is summed in
// float64 but every activation is rounded to float32, so a probe's two loss
// values carry rounding noise that the division by 2·gradEps amplifies, and
// the step adds its own truncation error (∝ gradEps²). Together they stay
// under 4e-6 on every probe of every test below, on the libm activations this
// suite was written against and on tensor's own alike; gradAbsTol sits five
// times above that, gradRelTol covers the large gradients. A 2 % error in a
// single backward term fails the suite.
const (
	gradEps    = 1e-2
	gradAbsTol = 2e-5
	gradRelTol = 1e-3
)

// numGrad returns the central difference of loss along *v, using the step
// actually taken (v ± gradEps as rounded to float32).
func numGrad(v *float32, loss func() float64) float64 {
	orig := *v
	*v = orig + gradEps
	hi, up := float64(*v), loss()
	*v = orig - gradEps
	lo, down := float64(*v), loss()
	*v = orig
	return (up - down) / (hi - lo)
}

// numGradCheck compares analytic parameter gradients against central
// differences of the scalar loss function. loss() must be a pure function
// of the current parameter values; the Grad slices must hold the gradients
// of that same loss.
func numGradCheck(t *testing.T, name string, params []Param, loss func() float64) {
	t.Helper()
	for _, p := range params {
		stride := len(p.Value)/7 + 1 // probe a spread of coordinates
		for i := 0; i < len(p.Value); i += stride {
			want := numGrad(&p.Value[i], loss)
			got := float64(p.Grad[i])
			if math.Abs(got-want) > gradAbsTol+gradRelTol*math.Abs(want) {
				t.Errorf("%s %s[%d]: analytic %v vs numeric %v", name, p.Name, i, got, want)
			}
		}
	}
}

// testCarver carves a standalone layer's tensors from zeroed slabs with room
// for any layer these tests build.
func testCarver() *carver {
	return &carver{values: make([]float32, 1<<12), grads: make([]float32, 1<<12)}
}

func TestLinearGradient(t *testing.T) {
	r := rng.New(1)
	l := newLinear(3, 4, r, testCarver())
	x := tensor.NewMatrix(5, 3)
	x.RandomizeNormal(r, 1)
	target := tensor.NewMatrix(5, 4)
	target.RandomizeNormal(r, 1)

	// Loss: mean squared distance to a fixed target.
	ws := new(workspace)
	loss := func() float64 {
		y := l.forward(ws, x)
		l.x = nil
		var sum float64
		for i := range y.Data {
			d := float64(y.Data[i] - target.Data[i])
			sum += d * d
		}
		return sum / float64(len(y.Data))
	}
	y := l.forward(ws, x)
	dy := tensor.NewMatrix(5, 4)
	for i := range dy.Data {
		dy.Data[i] = 2 * (y.Data[i] - target.Data[i]) / float32(len(y.Data))
	}
	dx := l.backward(ws, dy)
	numGradCheck(t, "linear", l.Params(), loss)
	// Input gradient via the same check.
	numGradCheck(t, "linear", []Param{{Name: "x", Value: x.Data, Grad: dx.Data}}, loss)
}

// gradStep runs the production training step as a pure function of the
// weights: the dropout mask stream, the carried RNN state and the candidate
// sampler are put back to the same starting point before every evaluation,
// so analytic gradients and every finite-difference probe see one fixed
// mask, one fixed (detached) initial state and one fixed candidate set.
type gradStep struct {
	m               *LM
	inputs, targets [][]int
	rngState        [4]uint64
	carried         CarriedState
}

func (g *gradStep) run() StepResult {
	g.m.SetRNGState(g.rngState)
	if err := g.m.SetCarriedRNNState(g.carried); err != nil {
		panic(err)
	}
	g.m.ZeroGrads()
	var s sampling.CandidateSampler
	if g.m.Cfg.Sampled > 0 {
		s = sampling.NewSampler(g.m.Cfg.Vocab, 77)
	}
	return g.m.ForwardBackward(g.inputs, g.targets, s)
}

func (g *gradStep) loss() float64 {
	res := g.run()
	return res.LossSum / float64(res.Count)
}

func randBatch(r *rng.RNG, t, b, vocab int) [][]int {
	ids := make([][]int, t)
	for step := range ids {
		ids[step] = make([]int, b)
		for i := range ids[step] {
			ids[step][i] = r.Intn(vocab)
		}
	}
	return ids
}

// gradCheckLM checks every gradient ForwardBackward produces — dense
// layers, input-embedding rows, output-embedding rows — against central
// differences of the same step's loss.
func gradCheckLM(t *testing.T, cfg Config) {
	t.Helper()
	cfg.Vocab, cfg.Dim, cfg.Hidden, cfg.Seed = 11, 5, 6, 3
	m := NewLM(cfg)
	r := rng.New(9)
	const T, B = 4, 3
	g := &gradStep{m: m, inputs: randBatch(r, T, B, cfg.Vocab), targets: randBatch(r, T, B, cfg.Vocab)}
	if cfg.Stateful {
		// One earlier batch leaves a non-zero carried state behind; the
		// checked step starts from it. Truncated BPTT treats that state as
		// a constant, and so does loss(), which restores this snapshot.
		m.ForwardBackward(randBatch(r, T, B, cfg.Vocab), randBatch(r, T, B, cfg.Vocab), nil)
		g.carried = m.CarriedRNNState()
		if g.carried.H == nil || tensor.L2Norm(g.carried.H) == 0 {
			t.Fatal("stateful case did not produce a carried state")
		}
	}
	g.rngState = m.RNGState()

	res := g.run()
	if res.Count != T*B {
		t.Fatalf("count = %d, want %d", res.Count, T*B)
	}
	// The probes below re-run the step, which overwrites the layers' Grad
	// slices and the workspace the result's embedding gradients live in:
	// compare against copies.
	for _, g := range []*core.SparseGrad{&res.InputGrad, &res.OutputGrad} {
		*g = core.SparseGrad{Indices: append([]int(nil), g.Indices...), Rows: g.Rows.Clone()}
	}
	analytic := append([]Param(nil), m.DenseParams()...) // the list itself is shared
	for i := range analytic {
		analytic[i].Grad = append([]float32(nil), analytic[i].Grad...)
	}
	numGradCheck(t, "lm-dense", analytic, g.loss)

	// Embedding gradients arrive as sparse rows (one per token for the
	// input side, one per scored word for the output side) already carrying
	// the mean-loss scaling; rows of the same word add up.
	for _, side := range []struct {
		name string
		emb  *tensor.Matrix
		grad core.SparseGrad
	}{{"inEmb", m.InEmb, res.InputGrad}, {"outEmb", m.OutEmb, res.OutputGrad}} {
		dense := tensor.NewMatrix(cfg.Vocab, cfg.Dim)
		tensor.ScatterAddRows(dense, side.grad.Rows, side.grad.Indices)
		words := map[int]bool{}
		for _, w := range side.grad.Indices {
			if len(words) < 4 {
				words[w] = true
			}
		}
		for w := range words {
			numGradCheck(t, "lm", []Param{{
				Name:  fmt.Sprintf("%s[%d]", side.name, w),
				Value: side.emb.Row(w),
				Grad:  dense.Row(w),
			}}, g.loss)
		}
	}
}

// TestLMGradientMatrix is the safety net under the activation kernels:
// {LSTM, RHN} × {full, sampled} softmax × dropout {off, on} × {fresh,
// carried} RNN state, every cell checked end to end.
func TestLMGradientMatrix(t *testing.T) {
	for _, rnn := range []struct {
		name  string
		kind  RNNKind
		depth int
	}{{"lstm", KindLSTM, 0}, {"rhn", KindRHN, 3}} {
		for _, sampled := range []int{0, 6} {
			for _, dropout := range []float64{0, 0.3} {
				for _, stateful := range []bool{false, true} {
					name := fmt.Sprintf("%s/sampled=%d/dropout=%v/stateful=%v", rnn.name, sampled, dropout, stateful)
					t.Run(name, func(t *testing.T) {
						gradCheckLM(t, Config{RNN: rnn.kind, RHNDepth: rnn.depth,
							Sampled: sampled, Dropout: dropout, Stateful: stateful})
					})
				}
			}
		}
	}
}

// TestSampledSoftmaxGradient checks the sampled-softmax loss's analytic
// gradients — dH on every row, dEmb on the first candidate rows — against
// central differences of the loss over a fixed candidate set.
func TestSampledSoftmaxGradient(t *testing.T) {
	r := rng.New(5)
	const B, D, V, S = 4, 5, 40, 12
	h := tensor.NewMatrix(B, D)
	h.RandomizeNormal(r, 1)
	emb := tensor.NewMatrix(V, D)
	emb.RandomizeNormal(r, 0.5)
	targets := []int{3, 17, 3, 29}

	// The candidate set must be identical across numerical probes, so the
	// sampler is re-seeded per evaluation.
	loss := func() float64 {
		s := sampling.NewSampler(V, 77)
		res := sampledSoftmaxLoss(new(workspace), nil, h, emb, targets, s, S)
		return res.LossSum / float64(res.Count)
	}
	s := sampling.NewSampler(V, 77)
	res := sampledSoftmaxLoss(new(workspace), nil, h, emb, targets, s, S)

	// dH on every row, dEmb on the candidate rows (DEmb row i belongs to
	// word Candidates[i]).
	numGradCheck(t, "sampled", []Param{{Name: "h", Value: h.Data, Grad: res.DH.Data}}, loss)
	for ci, w := range res.Candidates[:4] {
		numGradCheck(t, "sampled", []Param{{
			Name: fmt.Sprintf("emb[%d]", w), Value: emb.Row(w), Grad: res.DEmb.Row(ci),
		}}, loss)
	}
}

func TestSampledLossApproximatesFullLoss(t *testing.T) {
	r := rng.New(6)
	const B, D, V = 8, 6, 50
	h := tensor.NewMatrix(B, D)
	h.RandomizeNormal(r, 0.5)
	emb := tensor.NewMatrix(V, D)
	emb.RandomizeNormal(r, 0.3)
	targets := make([]int, B)
	for i := range targets {
		targets[i] = r.Intn(V)
	}
	fullSum, fullCount, _, _ := fullSoftmaxLoss(new(workspace), nil, h, emb, targets, false)
	full := fullSum / float64(fullCount)

	// The sampled loss is a Jensen-biased *under*-estimate of the full
	// loss (fewer competitors in the partition function); the bias must
	// shrink as S grows toward |V|.
	meanSampled := func(nSamples int) float64 {
		var acc float64
		const trials = 40
		for i := 0; i < trials; i++ {
			s := sampling.NewSampler(V, uint64(1000+i))
			res := sampledSoftmaxLoss(new(workspace), nil, h, emb, targets, s, nSamples)
			acc += res.LossSum / float64(res.Count)
		}
		return acc / trials
	}
	small := meanSampled(10)
	large := meanSampled(45)
	if small > full+0.05 || large > full+0.05 {
		t.Errorf("sampled loss exceeds full loss: S=10 %v, S=45 %v, full %v", small, large, full)
	}
	if full-large > 0.3 {
		t.Errorf("near-full sampling still far off: %v vs %v", large, full)
	}
	if full-large > full-small {
		t.Errorf("bias did not shrink with S: S=10 gap %v, S=45 gap %v", full-small, full-large)
	}
}

func TestFullSoftmaxGradSumsToZeroPerRow(t *testing.T) {
	r := rng.New(7)
	h := tensor.NewMatrix(3, 4)
	h.RandomizeNormal(r, 1)
	emb := tensor.NewMatrix(10, 4)
	emb.RandomizeNormal(r, 1)
	_, _, _, dEmb := fullSoftmaxLoss(new(workspace), nil, h, emb, []int{1, 5, 9}, true)
	// Column sums of dEmb equal sum_b (p_b - onehot_b) ᵀ h_b summed; each
	// softmax row's probability sums to 1, so Σ_w dlogits[b][w] = 0 and
	// the total embedding gradient projected on any h direction vanishes.
	for c := 0; c < 4; c++ {
		var sum float64
		for w := 0; w < 10; w++ {
			sum += float64(dEmb.At(w, c))
		}
		if math.Abs(sum) > 1e-4 {
			t.Errorf("col %d of dEmb sums to %v, want ~0", c, sum)
		}
	}
}

func TestLMTrainingReducesLoss(t *testing.T) {
	cfg := Config{Vocab: 20, Dim: 8, Hidden: 12, RNN: KindLSTM, Seed: 1}
	m := NewLM(cfg)
	r := rng.New(2)
	const T, B = 6, 4
	inputs := make([][]int, T)
	targets := make([][]int, T)
	for step := 0; step < T; step++ {
		inputs[step] = make([]int, B)
		targets[step] = make([]int, B)
		for b := 0; b < B; b++ {
			// A deterministic pattern the model can learn.
			inputs[step][b] = (step + b) % cfg.Vocab
			targets[step][b] = (step + b + 1) % cfg.Vocab
		}
	}
	_ = r
	first := -1.0
	var last float64
	const lr = 0.5
	for iter := 0; iter < 300; iter++ {
		m.ZeroGrads()
		res := m.ForwardBackward(inputs, targets, nil)
		mean := res.LossSum / float64(res.Count)
		if first < 0 {
			first = mean
		}
		last = mean
		// Plain SGD on all parts.
		for _, p := range m.DenseParams() {
			for i := range p.Value {
				p.Value[i] -= lr * p.Grad[i]
			}
		}
		// Embedding gradients already carry the mean-loss 1/Count factor.
		for i, w := range res.InputGrad.Indices {
			tensor.Axpy(-lr, m.InEmb.Row(w), res.InputGrad.Rows.Row(i))
		}
		for i, w := range res.OutputGrad.Indices {
			tensor.Axpy(-lr, m.OutEmb.Row(w), res.OutputGrad.Rows.Row(i))
		}
	}
	// The pattern is deterministic (target = input+1 mod V), so training
	// must drive the loss far below the ln(V) ≈ 3.0 starting point.
	if last > first*0.35 {
		t.Errorf("training did not reduce loss: %v -> %v", first, last)
	}
}

func TestEvalLoss(t *testing.T) {
	cfg := Config{Vocab: 15, Dim: 6, Hidden: 8, RNN: KindLSTM, Seed: 4}
	m := NewLM(cfg)
	stream := make([]int, 101)
	r := rng.New(3)
	for i := range stream {
		stream[i] = r.Intn(cfg.Vocab)
	}
	lossSum, count := m.EvalLoss(stream, 10)
	if count != 100 {
		t.Errorf("count = %d, want 100", count)
	}
	mean := lossSum / float64(count)
	// Untrained model on uniform data: mean loss ≈ ln(V).
	if math.Abs(mean-math.Log(15)) > 0.5 {
		t.Errorf("untrained eval loss %v, want ≈ %v", mean, math.Log(15))
	}
}

// TestReplicaSharesWeightsCloneCopiesThem: DenseParams tile one value slab
// and one gradient slab, in order and without gaps, and each dense layer's
// Params are the next run of them. A Replica's weight tensors are the
// source's storage — its value slab — and its gradient slab is its own; a
// Clone's weights are equal values in storage of its own. Both score a
// stream exactly as the source does and compute on its backend.
func TestReplicaSharesWeightsCloneCopiesThem(t *testing.T) {
	for _, kind := range []RNNKind{KindLSTM, KindRHN} {
		a := NewLM(Config{Vocab: 12, Dim: 4, Hidden: 5, RNN: kind, RHNDepth: 2, Seed: 1})
		a.SetBackend(tensor.New(2))
		off, i := 0, 0
		for _, l := range a.DenseLayers() {
			for _, p := range l.Params() {
				if q := a.DenseParams()[i]; q.Name != p.Name || &q.Value[0] != &p.Value[0] || &q.Grad[0] != &p.Grad[0] {
					t.Errorf("kind %d: layer parameter %s is not DenseParams()[%d] (%s)", kind, p.Name, i, q.Name)
				}
				if &p.Value[0] != &a.values[off] || &p.Grad[0] != &a.DenseGrads()[off] || len(p.Grad) != len(p.Value) {
					t.Errorf("kind %d: %s is not the slabs' next %d floats at %d", kind, p.Name, len(p.Value), off)
				}
				off, i = off+len(p.Value), i+1
			}
		}
		if i != len(a.DenseParams()) || off != len(a.values) || off != len(a.DenseGrads()) {
			t.Errorf("kind %d: the layers declare %d tensors of %d floats; DenseParams has %d, the slabs %d and %d",
				kind, i, off, len(a.DenseParams()), len(a.values), len(a.DenseGrads()))
		}
		r, c := a.Replica(), a.Clone()
		if &r.values[0] != &a.values[0] || &c.values[0] == &a.values[0] || !slices.Equal(c.values, a.values) {
			t.Errorf("kind %d: the replica must share the value slab and the clone copy it", kind)
		}
		if &r.DenseGrads()[0] == &a.DenseGrads()[0] || &c.DenseGrads()[0] == &a.DenseGrads()[0] {
			t.Errorf("kind %d: a gradient slab is shared", kind)
		}
		g := r.DenseGrads()
		g[len(g)-1] = 1
		if r.ZeroGrads(); g[len(g)-1] != 0 {
			t.Errorf("kind %d: ZeroGrads left the slab's last gradient at %v", kind, g[len(g)-1])
		}
		rw, cw := r.Weights(), c.Weights()
		for i, p := range a.Weights() {
			if &rw[i].Value[0] != &p.Value[0] {
				t.Errorf("kind %d: replica %s is not the source's storage", kind, p.Name)
			}
			if &cw[i].Value[0] == &p.Value[0] || !slices.Equal(cw[i].Value, p.Value) {
				t.Errorf("kind %d: clone %s is not an equal copy in its own storage", kind, p.Name)
			}
		}
		for i, p := range a.DenseParams() {
			if &r.DenseParams()[i].Grad[0] == &p.Grad[0] || &c.DenseParams()[i].Grad[0] == &p.Grad[0] {
				t.Errorf("kind %d: %s gradient is shared", kind, p.Name)
			}
		}
		if r.Backend() != a.Backend() || c.Backend() != a.Backend() {
			t.Errorf("kind %d: a replica or clone left its source's backend", kind)
		}
		stream := []int{1, 2, 3, 4, 5, 6, 7, 8}
		la, _ := a.EvalLoss(stream, 4)
		lr, _ := r.EvalLoss(stream, 4)
		lc, _ := c.EvalLoss(stream, 4)
		if la != lr || la != lc {
			t.Errorf("kind %d: losses %v (source), %v (replica), %v (clone)", kind, la, lr, lc)
		}
		a.InEmb.Data[0]++
		if r.InEmb.Data[0] != a.InEmb.Data[0] || c.InEmb.Data[0] == a.InEmb.Data[0] {
			t.Errorf("kind %d: a write to the source must reach the replica and not the clone", kind)
		}
	}
}

func TestNumParams(t *testing.T) {
	r := rng.New(1)
	l := newLinear(3, 4, r, testCarver())
	if got := NumParams(l); got != 3*4+4 {
		t.Errorf("NumParams = %d, want 16", got)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	cfg := Config{Vocab: 10, Dim: 4, Hidden: 4, RNN: KindLSTM, Seed: 1}
	m := NewLM(cfg)
	for _, f := range []func(){
		func() { NewLM(Config{}) },
		func() { m.ForwardBackward(nil, nil, nil) },
		func() { m.ForwardBackward([][]int{{1}}, [][]int{{1}, {2}}, nil) },
		func() { m.EvalLoss([]int{1, 2}, 0) },
		func() {
			h := tensor.NewMatrix(2, 4)
			fullSoftmaxLoss(new(workspace), nil, h, m.OutEmb, []int{1}, false)
		},
		func() {
			h := tensor.NewMatrix(1, 4)
			fullSoftmaxLoss(new(workspace), nil, h, m.OutEmb, []int{99}, false)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
