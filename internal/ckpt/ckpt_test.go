package ckpt

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"zipflm/internal/model"
	"zipflm/internal/optim"
)

// testState builds a representative full state: a real model, Adam-style
// optimizer moments, per-rank RNG streams and carried RNN state.
func testState(t *testing.T, step int) *State {
	t.Helper()
	m := model.NewLM(model.Config{Vocab: 40, Dim: 6, Hidden: 8, RNN: model.KindLSTM, Seed: 3})
	var mb bytes.Buffer
	if err := m.Save(&mb); err != nil {
		t.Fatal(err)
	}
	return &State{
		Step:       step,
		LR:         0.173,
		NextDecay:  200,
		Ranks:      2,
		ModelBytes: mb.Bytes(),
		Opt: optim.State{
			Kind:  "adam",
			T:     step,
			Names: []string{"a", "b"},
			M:     [][]float64{{0.1, 0.2}, {0.3}},
			V:     [][]float64{{0.4, 0.5}, {0.6}},
		},
		RNG: [][4]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}},
		RNN: []model.CarriedState{
			{H: []float32{1, 2, 3, 4}, C: []float32{5, 6, 7, 8}, Rows: 1, Cols: 4},
			{H: []float32{9, 10, 11, 12}, C: []float32{13, 14, 15, 16}, Rows: 1, Cols: 4},
		},
	}
}

func encode(t *testing.T, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := testState(t, 42)
	got, err := Decode(bytes.NewReader(encode(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != st.Step || got.LR != st.LR || got.NextDecay != st.NextDecay || got.Ranks != st.Ranks {
		t.Fatalf("scalar fields differ: %+v vs %+v", got, st)
	}
	if !bytes.Equal(got.ModelBytes, st.ModelBytes) {
		t.Error("model bytes differ")
	}
	if got.Opt.Kind != "adam" || got.Opt.T != 42 || got.Opt.M[1][0] != 0.3 {
		t.Errorf("optimizer state differs: %+v", got.Opt)
	}
	if got.RNG[1] != st.RNG[1] {
		t.Errorf("RNG streams differ: %v vs %v", got.RNG, st.RNG)
	}
	if got.RNN[1].C[3] != 16 {
		t.Errorf("carried state differs: %+v", got.RNN)
	}
	lm, err := got.LM()
	if err != nil {
		t.Fatal(err)
	}
	if lm.Cfg.Vocab != 40 {
		t.Errorf("embedded model decodes to vocab %d", lm.Cfg.Vocab)
	}
}

// TestDeterministicBytes is the content-addressability contract: encoding
// the same state twice — and encoding a separately-constructed identical
// state — must produce identical bytes. This is what the sorted
// dense-parameter fix in model.Save exists for.
func TestDeterministicBytes(t *testing.T) {
	a := encode(t, testState(t, 7))
	b := encode(t, testState(t, 7))
	if !bytes.Equal(a, b) {
		t.Fatal("identical states encode to different bytes")
	}
}

// TestOpenRejectsCorruptInputs is the fuzz-style table over damaged files:
// bit flips anywhere in the file, truncations at every region boundary (and
// odd offsets), version skew, and foreign content must all produce an
// error — never a panic, never a partially-valid State.
func TestOpenRejectsCorruptInputs(t *testing.T) {
	good := encode(t, testState(t, 9))
	dir := t.TempDir()

	check := func(name string, raw []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: Open panicked: %v", name, r)
			}
		}()
		st, err := Open(path)
		if err == nil {
			t.Errorf("%s: Open accepted damaged input", name)
		}
		if st != nil {
			t.Errorf("%s: Open returned a non-nil state with an error", name)
		}
	}

	// Bit flips: every region of the file (magic, version, length, payload
	// start/middle/end, CRC), one flipped bit each.
	for _, off := range []int{0, 9, 13, 21, len(good) / 2, len(good) - 5, len(good) - 1} {
		raw := append([]byte(nil), good...)
		raw[off] ^= 0x10
		check("bitflip", raw)
	}
	// Truncations: empty, header-only, mid-payload, missing CRC tail.
	for _, n := range []int{0, 4, 8, 12, 20, len(good) / 3, len(good) - 4, len(good) - 1} {
		check("truncated", append([]byte(nil), good[:n]...))
	}
	// Extra trailing bytes break the length/CRC framing too.
	check("padded", append(append([]byte(nil), good...), 0xAA))
	// Version skew: a well-formed file from a future format version.
	{
		raw := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(raw[8:12], Version+1)
		check("future-version", raw)
	}
	// Foreign content: a bare model.Save file is not a full checkpoint.
	{
		m := model.NewLM(model.Config{Vocab: 10, Dim: 4, Hidden: 4, RNN: model.KindLSTM, Seed: 1})
		var mb bytes.Buffer
		if err := m.Save(&mb); err != nil {
			t.Fatal(err)
		}
		check("model-file", mb.Bytes())
	}
	check("garbage", []byte("definitely not a checkpoint, much too short to be"))
}

func TestOpenReportsNotCheckpointForForeignMagic(t *testing.T) {
	raw := bytes.Repeat([]byte{'x'}, 64)
	_, err := Decode(bytes.NewReader(raw))
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("bad magic")) {
		t.Fatalf("want ErrNotCheckpoint, got %v", err)
	}
}

func TestWriteFileIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.ckpt")
	if err := WriteFile(path, testState(t, 1)); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a different state: the new content must land whole.
	if err := WriteFile(path, testState(t, 2)); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 2 {
		t.Fatalf("got step %d after overwrite", st.Step)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestDirSaveLoadAndRetention(t *testing.T) {
	d, err := NewDir(t.TempDir(), 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{10, 20, 30, 40, 50, 60} {
		st := testState(t, step)
		if _, err := d.Save(st); err != nil {
			t.Fatal(err)
		}
	}
	steps, err := d.Steps()
	if err != nil {
		t.Fatal(err)
	}
	// Keep-last-2 keeps {50, 60}; keep-every-40 archives {40}.
	want := []int{40, 50, 60}
	if len(steps) != len(want) {
		t.Fatalf("retained %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("retained %v, want %v", steps, want)
		}
	}
	st, err := d.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 60 {
		t.Fatalf("latest is step %d", st.Step)
	}
	if _, err := d.Load(40); err != nil {
		t.Fatalf("archived checkpoint unloadable: %v", err)
	}
}

func TestDirLatestEmpty(t *testing.T) {
	d, err := NewDir(t.TempDir(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Latest(); err == nil {
		t.Fatal("Latest on an empty directory must error")
	}
}

func TestPoissonFaultPlanDeterministicAndSpaced(t *testing.T) {
	a := PoissonFaultPlan(11, 8, 100, 10_000)
	b := PoissonFaultPlan(11, 8, 100, 10_000)
	if len(a.events) == 0 {
		t.Fatal("no faults drawn over 100 MTBFs")
	}
	if len(a.events) != len(b.events) {
		t.Fatalf("same seed drew %d vs %d faults", len(a.events), len(b.events))
	}
	for i := 0; i < len(a.events); i++ {
		fa, _ := a.Next(math.Inf(1))
		fb, _ := b.Next(math.Inf(1))
		if fa != fb {
			t.Fatalf("event %d differs: %+v vs %+v", i, fa, fb)
		}
		if fa.Time < 0 || fa.Time >= 10_000 || fa.Rank < 0 || fa.Rank >= 8 {
			t.Fatalf("event out of range: %+v", fa)
		}
	}
	// Mean inter-arrival within 3σ of the MTBF (σ ≈ M/√n for exponentials).
	mean := 10_000 / float64(len(a.events))
	if mean < 60 || mean > 160 {
		t.Errorf("mean inter-arrival %.1f far from MTBF 100", mean)
	}
}

func TestFaultPlanCursor(t *testing.T) {
	p := NewFaultPlan([]Fault{{Time: 5, Rank: 1}, {Time: 2, Rank: 0}, {Time: 9, Rank: 2}})
	if _, ok := p.Next(1.9); ok {
		t.Fatal("no fault due before t=2")
	}
	f, ok := p.Next(6)
	if !ok || f.Time != 2 {
		t.Fatalf("want the t=2 fault first (sorted), got %+v ok=%v", f, ok)
	}
	f, ok = p.Next(6)
	if !ok || f.Time != 5 {
		t.Fatalf("want the t=5 fault next, got %+v ok=%v", f, ok)
	}
	if _, ok := p.Next(6); ok {
		t.Fatal("t=9 fault must stay queued")
	}
	if p.next != 2 {
		t.Fatalf("injected %d", p.next)
	}
	p.Reset()
	if p.next != 0 {
		t.Fatal("Reset must rewind the cursor")
	}
}

func TestYoungDaly(t *testing.T) {
	// δ = 2 s, M = 100 s → τ = √400 = 20 s.
	if got := YoungDaly(2, 100); math.Abs(got-20) > 1e-12 {
		t.Fatalf("YoungDaly(2,100) = %v", got)
	}
	if YoungDaly(0, 100) != 0 || YoungDaly(2, 0) != 0 {
		t.Fatal("degenerate inputs must return 0")
	}
}
