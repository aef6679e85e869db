package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"zipflm/internal/model"
	"zipflm/internal/optim"
)

// testState builds a representative full state: a real model, Adam-style
// optimizer moments, per-rank RNG streams and carried RNN state.
func testState(t *testing.T, step int) *State {
	t.Helper()
	m := model.NewLM(model.Config{Vocab: 40, Dim: 6, Hidden: 8, RNN: model.KindLSTM, Seed: 3})
	mb, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return &State{
		Step:       step,
		LR:         0.173,
		NextDecay:  200,
		Ranks:      2,
		ModelBytes: mb,
		Opt: optim.State{
			Kind: "adam",
			T:    step,
			M:    []float32{0.1, 0.2, 0.3},
			V:    []float32{0.4, 0.5, 0.6},
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

// TestRoundTripIsLossless: every field of a state with optimizer moments and
// carried recurrent state survives Encode → Decode
// exactly (DeepEqual: values, lengths and nil-ness), and Encode leaves its
// argument untouched.
func TestRoundTripIsLossless(t *testing.T) {
	st := testState(t, 42)
	st.RNN[1].C = nil // an RHN rank: no cell state
	st.Opt.M[1] = math.Float32frombits(0x7fc00123)
	want := testState(t, 42)
	want.RNN[1].C = nil
	want.Opt.M[1] = math.Float32frombits(0x7fc00123)
	got, err := Decode(bytes.NewReader(encode(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float32bits(got.Opt.M[1]) != 0x7fc00123 {
		t.Errorf("NaN payload changed: %#08x", math.Float32bits(got.Opt.M[1]))
	}
	got.Opt.M[1], want.Opt.M[1], st.Opt.M[1] = 0, 0, 0 // NaN != NaN under DeepEqual
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the state:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(st, want) {
		t.Error("Encode modified the state it was given")
	}
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
	if got.Opt.Kind != "adam" || got.Opt.T != 42 || got.Opt.M[2] != 0.3 || got.Opt.V[2] != 0.6 {
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
// state — must produce identical bytes.
func TestDeterministicBytes(t *testing.T) {
	a := encode(t, testState(t, 7))
	b := encode(t, testState(t, 7))
	if !bytes.Equal(a, b) {
		t.Fatal("identical states encode to different bytes")
	}
}

// failingWriter accepts limit bytes and fails every Write from then on, the
// way a full disk, a quota or a closed pipe does: the call that hits the
// limit takes what still fits and reports the error.
type failingWriter struct{ limit, n int }

var errDiskFull = errors.New("no space left on device")

func (w *failingWriter) Write(p []byte) (int, error) {
	k := min(len(p), w.limit-w.n)
	w.n += k
	if k < len(p) {
		return k, errDiskFull
	}
	return k, nil
}

// TestEncodeReportsWriteErrors: a writer that fails after k bytes makes
// Encode return that error, for every k short of the whole frame — in the
// header, inside the model bytes (passed through when they outgrow the block,
// buffered when they do not), at the 64 KiB block boundary, in the middle of
// a tensor and in the CRC. Each attempt runs under a deadline: a failed flush
// leaves bufio's block full, and an Encode that retried it span forever
// inside the training loop instead of failing the save.
func TestEncodeReportsWriteErrors(t *testing.T) {
	big := testState(t, 9)
	big.Opt.M = append(make([]float32, 40_000), 1, 2, 3)
	big.Opt.V = append(make([]float32, 40_000), 4, 5, 6)
	passThrough := testState(t, 9)
	passThrough.ModelBytes = make([]byte, 100<<10) // Encode does not look inside
	for name, st := range map[string]*State{"tensors outgrow the block": big, "model outgrows the block": passThrough} {
		total := len(encode(t, st))
		limits := []int{0, 1, headLen - 1, headLen, 64<<10 - 1, 64 << 10, 64<<10 + 1, 64<<10 + 2,
			2 * (64 << 10), total - 5, total - 4, total - 1}
		for k := 0; k < total; k += 4093 {
			limits = append(limits, k)
		}
		for _, k := range append(limits, total) {
			w := &failingWriter{limit: k}
			done := make(chan error, 1)
			go func() { done <- Encode(w, st) }()
			select {
			case err := <-done:
				if k < total && !errors.Is(err, errDiskFull) {
					t.Errorf("%s: writer fails after %d of %d bytes: Encode returned %v", name, k, total, err)
				}
				if k == total && err != nil {
					t.Errorf("%s: writer with room for the whole frame: %v", name, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: writer fails after %d of %d bytes: Encode has not returned", name, k, total)
			}
		}
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
	// Version skew: a well-formed file of a future or an earlier format
	// version (TestRefusedVersionIsNamed checks the errors).
	for _, v := range []uint32{Version + 1, 3} {
		check(fmt.Sprintf("version-%d", v), withVersion(good, v))
	}
	// Foreign content: a model file on its own is not a checkpoint.
	{
		m := model.NewLM(model.Config{Vocab: 10, Dim: 4, Hidden: 4, RNN: model.KindLSTM, Seed: 1})
		mb, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		check("model-file", mb)
	}
	check("garbage", []byte("definitely not a checkpoint, much too short to be"))

	// Damage a CRC cannot see, because the writer itself was wrong or
	// hostile: well-framed files whose gob part disagrees with the raw part.
	st := testState(t, 9)
	fr, tail := splitFrame(t, encode(t, st))
	nModel := fr.ModelLen
	mutate := func(name string, edit func(*frame), tail []byte) {
		t.Helper()
		e := fr
		e.Lens = append([]int(nil), fr.Lens...)
		edit(&e)
		check(name, buildVersion(t, Version, e, tail))
	}
	if _, err := decode(buildVersion(t, Version, fr, tail)); err != nil {
		t.Fatalf("the rebuilt frame must decode: %v", err)
	}
	for _, i := range []int{0, len(fr.Lens) - 1} {
		for _, n := range []int{1 << 62, 1 << 28, -1, fr.Lens[i] + 1, fr.Lens[i] - 1} {
			mutate("tensor length", func(e *frame) { e.Lens[i] = n }, tail)
		}
	}
	for _, n := range []int{1 << 62, -1, nModel + 1, nModel - 1, len(tail) + 1} {
		mutate("model length", func(e *frame) { e.ModelLen = n }, tail)
	}
	mutate("a length missing", func(e *frame) { e.Lens = e.Lens[1:] }, tail)
	mutate("a length too many", func(e *frame) { e.Lens = append(e.Lens, 0) }, tail)
	mutate("a carried state missing", func(e *frame) { e.State.RNN = e.State.RNN[:1] }, tail)
	mutate("raw part one byte short", func(*frame) {}, tail[:len(tail)-1])
	mutate("raw part one byte long", func(*frame) {}, append(append([]byte(nil), tail...), 0))
	mutate("raw part one tensor long", func(*frame) {}, append(append([]byte(nil), tail...), 0, 0, 0, 0))
	mutate("no raw part", func(*frame) {}, nil)
	mutate("wrong rank count", func(e *frame) { e.State.Ranks = 3 }, tail)
}

// splitFrame takes a checkpoint file apart: its gob value and the raw bytes
// (model file, then tensors) that follow it.
func splitFrame(t *testing.T, raw []byte) (frame, []byte) {
	t.Helper()
	r := bytes.NewReader(raw[headLen : len(raw)-4])
	var fr frame
	if err := gob.NewDecoder(r).Decode(&fr); err != nil {
		t.Fatal(err)
	}
	return fr, raw[len(raw)-4-r.Len() : len(raw)-4]
}

// buildVersion frames a gob value and a raw tail correctly — right length,
// right CRC — whatever they say about each other.
func buildVersion(t testing.TB, version uint32, v any, tail []byte) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		t.Fatal(err)
	}
	payload.Write(tail)
	out := append([]byte(nil), magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint64(out, uint64(payload.Len()))
	out = append(out, payload.Bytes()...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// withVersion returns a copy of the file raw that claims another version,
// with its CRC recomputed: well-formed in everything but the number.
func withVersion(raw []byte, version uint32) []byte {
	out := slices.Clone(raw[:len(raw)-4])
	binary.LittleEndian.PutUint32(out[8:12], version)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// TestRefusedVersionIsNamed: a well-formed file that claims an earlier
// format — the gob frames of versions 1 and 2, the per-tensor, name-sorted
// moments of version 3 — or a future one is refused by its version number
// alone, by Decode and by Open, with an error that names that version.
func TestRefusedVersionIsNamed(t *testing.T) {
	good := encode(t, testState(t, 9))
	for _, v := range []uint32{1, 2, 3, Version + 1} {
		t.Run(fmt.Sprintf("version-%d", v), func(t *testing.T) {
			raw := withVersion(good, v)
			want := fmt.Sprintf("ckpt: version %d, this build reads %d", v, Version)
			if st, err := Decode(bytes.NewReader(raw)); st != nil || err == nil || err.Error() != want {
				t.Errorf("Decode: state %v, error %v, want %q", st != nil, err, want)
			}
			path := filepath.Join(t.TempDir(), "step-000000000009.ckpt")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if st, err := Open(path); st != nil || err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("Open: state %v, error %v, want %q…", st != nil, err, want)
			}
		})
	}
}

// TestNonFiniteWeightsAreNotLoaded: a checkpoint whose frame is whole but
// whose model holds one NaN or ±Inf weight opens, and State.LM refuses it
// with an error naming the tensor — every loader (-model, /v1/reload,
// -watch, zipflm-generate, Resume) decodes through it.
func TestNonFiniteWeightsAreNotLoaded(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, which := range []int{0, 1, -1} { // InEmb, OutEmb, the last dense tensor
			m := model.NewLM(model.Config{Vocab: 40, Dim: 6, Hidden: 8, RNN: model.KindLSTM, Seed: 3})
			w := m.Weights()
			p := w[(which+len(w))%len(w)]
			p.Value[len(p.Value)/2] = float32(bad)
			mb, err := m.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "model.ckpt")
			if err := WriteFile(path, &State{Step: 1, Ranks: 1, ModelBytes: mb}); err != nil {
				t.Fatal(err)
			}
			st, err := Open(path)
			if err != nil {
				t.Fatalf("%v in %s: Open: %v", bad, p.Name, err)
			}
			if lm, err := st.LM(); lm != nil || err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", p.Name)) {
				t.Errorf("%v in %s: LM returned a model %v, error %v; want a refusal naming the tensor", bad, p.Name, lm != nil, err)
			}
		}
	}
}

// TestDecodeNeverOutgrowsItsInput: refusing or accepting, decode allocates
// at most its input's size plus the gob machinery — a tensor length is
// checked against the bytes that remain before anything is made for it.
func TestDecodeNeverOutgrowsItsInput(t *testing.T) {
	st := testState(t, 3)
	st.Opt.M = make([]float32, 1<<16)
	st.Opt.V = make([]float32, 1<<16)
	good := encode(t, st)
	fr, tail := splitFrame(t, good)
	inputs := map[string][]byte{"good": good}
	for name, n := range map[string]int{"2^62": 1 << 62, "2^28": 1 << 28, "2^40": 1 << 40} {
		e := fr
		e.Lens = append([]int(nil), fr.Lens...)
		e.Lens[len(e.Lens)-1] = n
		inputs["last length "+name] = buildVersion(t, Version, e, tail)
		e.Lens = append([]int(nil), fr.Lens...)
		e.Lens[0] = n
		inputs["first length "+name] = buildVersion(t, Version, e, tail)
	}
	decode(good) // warm gob's type tables
	for name, raw := range inputs {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := decode(raw)
		runtime.ReadMemStats(&m1)
		if (err == nil) != (name == "good") {
			t.Errorf("%s: err = %v", name, err)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > uint64(len(raw))+64<<10 {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(raw), alloc)
		}
	}
}

func TestOpenReportsNotCheckpointForForeignMagic(t *testing.T) {
	raw := bytes.Repeat([]byte{'x'}, 64)
	_, err := Decode(bytes.NewReader(raw))
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("bad magic")) {
		t.Fatalf("want a bad-magic error, got %v", err)
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

// TestWrittenFilesAreWorldReadable: WriteFile (behind zipflm-train -save)
// and Dir.Save (behind -ckpt-dir) leave a checkpoint another account can
// read, mode 0644, not the 0600 of the temporary file it starts as.
func TestWrittenFilesAreWorldReadable(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("no Unix permission bits on windows")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	if err := WriteFile(path, testState(t, 1)); err != nil {
		t.Fatal(err)
	}
	d, err := NewDir(filepath.Join(dir, "ckpts"), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := d.Save(testState(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, saved} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := fi.Mode().Perm(); got != 0o644 {
			t.Errorf("%s: mode %v, want -rw-r--r--", p, got)
		}
	}
}

func TestDirSaveLoadAndRetention(t *testing.T) {
	if _, err := NewDir(t.TempDir(), 2, 40); err == nil {
		t.Fatal("NewDir accepted a KeepEvery archive grid")
	}
	d, err := NewDir(t.TempDir(), 2, 0)
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
	// Keep-last-2 keeps {50, 60}.
	want := []int{50, 60}
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
	// Open on the directory is its newest checkpoint.
	if st, err := Open(d.Path()); err != nil || st.Step != 60 {
		t.Fatalf("Open(dir): %v, want step 60", err)
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
	if _, err := Open(d.Path()); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Open on an empty directory: %v, want ErrEmpty", err)
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

// TestDirLoadPrunedStep: a step retention pruned, or one never saved, is
// Load's error and no state; a kept step loads as saved.
func TestDirLoadPrunedStep(t *testing.T) {
	d, err := NewDir(t.TempDir(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{10, 20} {
		if _, err := d.Save(testState(t, step)); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []int{10, 15} {
		if st, err := d.Load(step); err == nil || st != nil {
			t.Errorf("Load(%d) = %v, %v; want an error and no state", step, st, err)
		}
	}
	st, err := d.Load(20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 20 {
		t.Fatalf("Load(20) returned step %d", st.Step)
	}
}
