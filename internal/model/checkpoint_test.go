package model

import (
	"bytes"
	"encoding/gob"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"zipflm/internal/rng"
)

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := Config{Vocab: 30, Dim: 6, Hidden: 8, RNN: KindLSTM, Sampled: 8, Seed: 5}
	m := NewLM(cfg)
	// Perturb weights away from the seed-determined init.
	m.InEmb.Data[3] = 42
	m.DenseParams()[0].Value[0] = -7

	raw, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Cfg != cfg {
		t.Fatalf("config mismatch: %+v vs %+v", loaded.Cfg, cfg)
	}
	if loaded.InEmb.Data[3] != 42 {
		t.Error("input embedding not restored")
	}
	if loaded.DenseParams()[0].Value[0] != -7 {
		t.Error("dense parameter not restored")
	}

	// The restored model must behave identically.
	stream := []int{1, 2, 3, 4, 5, 6, 7, 8}
	la, ca := m.EvalLoss(stream, 4)
	lb, cb := loaded.EvalLoss(stream, 4)
	if la != lb || ca != cb {
		t.Fatalf("loaded model behaves differently: %v/%d vs %v/%d", la, ca, lb, cb)
	}
}

func TestCheckpointRHN(t *testing.T) {
	cfg := Config{Vocab: 20, Dim: 4, Hidden: 6, RNN: KindRHN, RHNDepth: 3, Stateful: true, Seed: 2}
	m := NewLM(cfg)
	raw, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Cfg.Stateful || loaded.Cfg.RHNDepth != 3 {
		t.Error("config fields lost")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not a checkpoint")); err == nil {
		t.Fatal("garbage must fail to load")
	}
}

// TestSaveDeterministicBytes: saving one model twice, and saving a
// separately-constructed identical model, must produce byte-identical
// files — the property the ckpt store's CRC/content-hash layer relies on.
func TestSaveDeterministicBytes(t *testing.T) {
	cfg := Config{Vocab: 30, Dim: 6, Hidden: 8, RNN: KindRHN, RHNDepth: 3, Seed: 11}
	m := NewLM(cfg)
	a, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewLM(cfg).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two saves of the same model differ")
	}
	if !bytes.Equal(a, c) {
		t.Fatal("saves of identically-constructed models differ")
	}
}

// TestLoadRejectsDamagedCheckpoints is the fuzz-style table over damaged
// model files: truncations, padding, version skew, and headers that disagree
// with the tensor section must error, and no damaged input of any kind —
// including arbitrary bit flips, which nothing here can always detect (full
// integrity is the ckpt package's CRC framing) — may panic, yield a
// half-initialized model, or make Unmarshal allocate from a length the input does
// not back.
func TestLoadRejectsDamagedCheckpoints(t *testing.T) {
	m := NewLM(Config{Vocab: 25, Dim: 5, Hidden: 6, RNN: KindLSTM, Sampled: 4, Seed: 8})
	good, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	tryLoad := func(name string, raw []byte, mustErr bool) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: Unmarshal panicked: %v", name, r)
			}
		}()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		lm, err := Unmarshal(raw)
		runtime.ReadMemStats(&m1)
		if mustErr && err == nil {
			t.Errorf("%s: Unmarshal accepted damaged input", name)
		}
		if (lm == nil) == (err == nil) {
			t.Errorf("%s: Unmarshal returned model=%v err=%v", name, lm != nil, err)
		}
		// A refused input costs the gob machinery, never a tensor sized from a hostile header.
		if alloc := m1.TotalAlloc - m0.TotalAlloc; err != nil && alloc > uint64(4*len(raw))+1<<20 {
			t.Errorf("%s: refusing %d bytes allocated %d", name, len(raw), alloc)
		}
	}

	// The header is the leading gob value; the tensor section is the rest.
	var h fileHeader
	hr := bytes.NewReader(good)
	if err := gob.NewDecoder(hr).Decode(&h); err != nil {
		t.Fatal(err)
	}
	tensors := good[len(good)-hr.Len():]
	if want := 4 * int(paramFloats(m.Cfg)); len(tensors) != want {
		t.Fatalf("tensor section is %d bytes, want %d", len(tensors), want)
	}
	// with re-encodes the file under an edited header, tensors appended.
	with := func(edit func(*fileHeader), tail []byte) []byte {
		e := h
		e.DenseNames = append([]string(nil), h.DenseNames...)
		e.DenseLens = append([]int(nil), h.DenseLens...)
		edit(&e)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(e); err != nil {
			t.Fatal(err)
		}
		return append(buf.Bytes(), tail...)
	}
	tryLoad("re-encoded header", with(func(*fileHeader) {}, tensors), false)
	if _, err := Unmarshal(with(func(*fileHeader) {}, tensors)); err != nil {
		t.Fatalf("the unedited re-encoding must load: %v", err)
	}

	for _, n := range []int{0, 1, 7, len(good) - len(tensors), len(good) / 3, len(good) / 2, len(good) - 4, len(good) - 1} {
		tryLoad("truncated", good[:n], true)
	}
	tryLoad("one byte long", append(append([]byte(nil), good...), 0), true)
	tryLoad("one tensor long", append(append([]byte(nil), good...), 0, 0, 0, 0), true)
	for _, n := range []int{1 << 62, 1 << 28, -1, h.DenseLens[0] + 1, h.DenseLens[0] - 1} {
		tryLoad("dense length", with(func(e *fileHeader) { e.DenseLens[0] = n }, tensors), true)
	}
	tryLoad("lengths traded between tensors", with(func(e *fileHeader) { e.DenseLens[0]--; e.DenseLens[1]++ }, tensors), true)
	tryLoad("a length missing", with(func(e *fileHeader) { e.DenseLens = e.DenseLens[1:] }, tensors), true)
	tryLoad("names out of order", with(func(e *fileHeader) {
		e.DenseNames[0], e.DenseNames[1] = e.DenseNames[1], e.DenseNames[0]
		e.DenseLens[0], e.DenseLens[1] = e.DenseLens[1], e.DenseLens[0]
	}, tensors), true)
	tryLoad("names in name order, not declaration order", with(func(e *fileHeader) {
		sort.Sort(byName(*e))
	}, tensors), true)
	tryLoad("duplicate name", with(func(e *fileHeader) { e.DenseNames[1] = e.DenseNames[0] }, tensors), true)
	tryLoad("unknown name", with(func(e *fileHeader) { e.DenseNames[0] = "a.nobody" }, tensors), true)
	tryLoad("extra empty tensor", with(func(e *fileHeader) {
		e.DenseNames, e.DenseLens = append(e.DenseNames, "zzz"), append(e.DenseLens, 0)
	}, tensors), true)
	// Configs the tensor section does not bear out, harmless to hostile.
	for _, edit := range []func(*fileHeader){
		func(e *fileHeader) { e.Cfg.Vocab++ },
		func(e *fileHeader) { e.Cfg.Hidden-- },
		func(e *fileHeader) { e.Cfg.RNN = KindRHN },
		func(e *fileHeader) { e.Cfg.Vocab = 1 << 40 },
		func(e *fileHeader) { e.Cfg.Vocab, e.Cfg.Dim = 1<<32, 1<<32 }, // Vocab·Dim overflows to 0
		func(e *fileHeader) { e.Cfg.Hidden = 1 << 20 },
		func(e *fileHeader) { e.Cfg.RNN, e.Cfg.RHNDepth = KindRHN, 1<<40 },
	} {
		tryLoad("config disagrees with tensors", with(edit, tensors), true)
	}

	// Version skew: a well-formed file of any other version must be refused,
	// and a version-3 one (name-sorted tensors) says which version it is.
	tryLoad("future-version", with(func(e *fileHeader) { e.Version = checkpointVersion + 1 }, tensors), true)
	tryLoad("version-zero", with(func(e *fileHeader) { e.Version = 0 }, tensors), true)
	v3 := with(func(e *fileHeader) { e.Version = 3; sort.Sort(byName(*e)) }, tensors)
	tryLoad("version 3", v3, true)
	if _, err := Unmarshal(v3); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Errorf("a version-3 file: %v, want an error naming version 3", err)
	}
	tryLoad("header only", with(func(*fileHeader) {}, nil), true)
	// Bit flips: a flip in the header may or may not decode, one in a tensor
	// always does — the contract is only no-panic and no half-state.
	for off := 0; off < len(good); off += 13 {
		raw := append([]byte(nil), good...)
		raw[off] ^= 0x40
		tryLoad("bitflip", raw, false)
	}
}

// byName sorts a header's dense names, with their lengths, the way
// version-3 files listed them.
type byName fileHeader

func (h byName) Len() int           { return len(h.DenseNames) }
func (h byName) Less(i, j int) bool { return h.DenseNames[i] < h.DenseNames[j] }
func (h byName) Swap(i, j int) {
	h.DenseNames[i], h.DenseNames[j] = h.DenseNames[j], h.DenseNames[i]
	h.DenseLens[i], h.DenseLens[j] = h.DenseLens[j], h.DenseLens[i]
}

// reheader re-encodes the model file raw under an edited copy of its
// header; the tensor section is kept as it is.
func reheader(tb testing.TB, raw []byte, edit func(*fileHeader)) []byte {
	tb.Helper()
	var h fileHeader
	r := bytes.NewReader(raw)
	if err := gob.NewDecoder(r).Decode(&h); err != nil {
		tb.Fatal(err)
	}
	edit(&h)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		tb.Fatal(err)
	}
	return append(buf.Bytes(), raw[len(raw)-r.Len():]...)
}

// sameWeights fails unless got holds want's configuration and every weight
// bit for bit.
func sameWeights(t *testing.T, ctx string, got, want *LM) {
	t.Helper()
	if got.Cfg != want.Cfg {
		t.Fatalf("%s: config %+v, want %+v", ctx, got.Cfg, want.Cfg)
	}
	same := func(name string, g, w []float32) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d values, want %d", ctx, name, len(g), len(w))
		}
		for i := range w {
			if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", ctx, name, i, g[i], w[i])
			}
		}
	}
	same("InEmb", got.InEmb.Data, want.InEmb.Data)
	same("OutEmb", got.OutEmb.Data, want.OutEmb.Data)
	for i, p := range want.DenseParams() {
		same(p.Name, got.DenseParams()[i].Value, p.Value)
	}
}

// TestParamFloatsMatchesNewLM pins the closed form Unmarshal checks a file
// against to what NewLM really builds.
func TestParamFloatsMatchesNewLM(t *testing.T) {
	for _, cfg := range []Config{
		{Vocab: 7, Dim: 3, Hidden: 5, RNN: KindLSTM},
		{Vocab: 9, Dim: 4, Hidden: 2, RNN: KindLSTM, Sampled: 3},
		{Vocab: 5, Dim: 2, Hidden: 3, RNN: KindRHN},
		{Vocab: 5, Dim: 6, Hidden: 4, RNN: KindRHN, RHNDepth: 1},
		{Vocab: 11, Dim: 3, Hidden: 7, RNN: KindRHN, RHNDepth: 5},
	} {
		m := NewLM(cfg)
		n := len(m.InEmb.Data) + len(m.OutEmb.Data)
		for _, p := range m.DenseParams() {
			n += len(p.Value)
		}
		if got := paramFloats(cfg); got != float64(n) {
			t.Errorf("%+v: paramFloats = %.0f, NewLM builds %d", cfg, got, n)
		}
	}
}

// FuzzLoad hammers the model-file parser with arbitrary bytes and mutations
// of real files, among them headers in the name order and under the version
// number of format 3. Unmarshal must never panic, and a model it does return must
// be whole: it saves, and the save loads back to the same weights.
func FuzzLoad(f *testing.F) {
	for _, cfg := range []Config{
		{Vocab: 6, Dim: 2, Hidden: 3, RNN: KindLSTM, Seed: 1},
		{Vocab: 5, Dim: 2, Hidden: 2, RNN: KindRHN, RHNDepth: 2, Seed: 2},
	} {
		m := NewLM(cfg)
		cur, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(cur)
		f.Add(cur[:len(cur)-1])
		f.Add(cur[:len(cur)/2])
		f.Add(append(append([]byte(nil), cur...), 0, 0, 0, 0))
		f.Add(reheader(f, cur, func(h *fileHeader) { sort.Sort(byName(*h)) }))
		f.Add(reheader(f, cur, func(h *fileHeader) { h.Version = 3; sort.Sort(byName(*h)) }))
	}
	f.Add([]byte{})
	f.Add([]byte("not a checkpoint"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			if m != nil {
				t.Fatal("Unmarshal returned a model with an error")
			}
			return
		}
		again, err := m.Marshal()
		if err != nil {
			t.Fatalf("accepted model fails to save: %v", err)
		}
		back, err := Unmarshal(again)
		if err != nil {
			t.Fatalf("re-saved model fails to load: %v", err)
		}
		sameWeights(t, "round trip", back, m)
	})
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Vocab: 25, Dim: 6, Hidden: 8, RNN: KindLSTM, Seed: 7}
	m := NewLM(cfg)
	a := m.Generate([]int{1, 2, 3}, 20, 1.0, rng.New(9))
	b := m.Generate([]int{1, 2, 3}, 20, 1.0, rng.New(9))
	if len(a) != 20 {
		t.Fatalf("generated %d tokens", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("generation not deterministic for equal RNG seeds")
		}
		if a[i] < 0 || a[i] >= cfg.Vocab {
			t.Fatalf("token %d outside vocabulary", a[i])
		}
	}
}

func TestGenerateGreedyIsArgmax(t *testing.T) {
	cfg := Config{Vocab: 15, Dim: 5, Hidden: 6, RNN: KindRHN, RHNDepth: 2, Seed: 3}
	m := NewLM(cfg)
	a := m.Generate([]int{4}, 10, 0, rng.New(1))
	b := m.Generate([]int{4}, 10, 0, rng.New(99)) // RNG must not matter
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy generation depends on RNG")
		}
	}
}

// TestGenerateLearnsPattern: after training on a deterministic cycle the
// greedy continuation must follow the cycle.
func TestGenerateLearnsPattern(t *testing.T) {
	cfg := Config{Vocab: 10, Dim: 8, Hidden: 12, RNN: KindLSTM, Seed: 1}
	m := NewLM(cfg)
	const T, B = 8, 4
	inputs := make([][]int, T)
	targets := make([][]int, T)
	for step := 0; step < T; step++ {
		inputs[step] = make([]int, B)
		targets[step] = make([]int, B)
		for b := 0; b < B; b++ {
			inputs[step][b] = (step + b) % 10
			targets[step][b] = (step + b + 1) % 10
		}
	}
	for iter := 0; iter < 400; iter++ {
		m.ZeroGrads()
		res := m.ForwardBackward(inputs, targets, nil)
		for _, p := range m.DenseParams() {
			for i := range p.Value {
				p.Value[i] -= 0.5 * p.Grad[i]
			}
		}
		for i, w := range res.InputGrad.Indices {
			for c, v := range res.InputGrad.Rows.Row(i) {
				m.InEmb.Row(w)[c] -= 0.5 * v
			}
		}
		for i, w := range res.OutputGrad.Indices {
			for c, v := range res.OutputGrad.Rows.Row(i) {
				m.OutEmb.Row(w)[c] -= 0.5 * v
			}
		}
	}
	out := m.Generate([]int{0, 1, 2}, 5, 0, rng.New(1))
	want := []int{3, 4, 5, 6, 7}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("greedy continuation %v, want %v", out, want)
		}
	}
}

func TestGenerateDoesNotDisturbState(t *testing.T) {
	cfg := Config{Vocab: 20, Dim: 5, Hidden: 6, RNN: KindLSTM, Stateful: true, Seed: 4}
	m := NewLM(cfg)
	inputs := [][]int{{1, 2}, {3, 4}}
	targets := [][]int{{2, 3}, {4, 5}}
	m.ZeroGrads()
	m.ForwardBackward(inputs, targets, nil)

	ref := m.Clone()
	ref.ZeroGrads()
	ref.ForwardBackward(inputs, targets, nil)
	want := ref.ForwardBackward(inputs, targets, nil).LossSum

	m.Generate([]int{1, 2, 3}, 10, 1.0, rng.New(5))
	m.ZeroGrads()
	got := m.ForwardBackward(inputs, targets, nil).LossSum
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("generation disturbed training state: %v vs %v", got, want)
	}
}

func TestGeneratePanics(t *testing.T) {
	m := NewLM(Config{Vocab: 10, Dim: 4, Hidden: 4, RNN: KindLSTM, Seed: 1})
	for _, f := range []func(){
		func() { m.Generate(nil, 5, 1, rng.New(1)) },
		func() { m.Generate([]int{99}, 5, 1, rng.New(1)) },
		func() { m.Generate([]int{1}, 5, -1, rng.New(1)) },
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

func TestScore(t *testing.T) {
	m := NewLM(Config{Vocab: 12, Dim: 4, Hidden: 5, RNN: KindLSTM, Seed: 6})
	s := m.Score([]int{1, 2, 3, 4, 5}, 2)
	if math.IsNaN(s) || s <= 0 {
		t.Fatalf("Score = %v", s)
	}
	if got := m.Score([]int{1}, 2); !math.IsNaN(got) {
		t.Fatalf("Score on too-short stream = %v, want NaN", got)
	}
}
