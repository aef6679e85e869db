package ckpt

import (
	"bytes"
	"encoding/gob"
	"testing"

	"zipflm/internal/model"
	"zipflm/internal/optim"
)

// FuzzDecode hammers the checkpoint frame parser with arbitrary bytes plus
// mutations of real encodings. The contract under fuzzing is the one the
// package documents: Decode never panics, and anything it does accept
// re-encodes and re-decodes to an equivalent state (no partially validated
// state escapes). CI runs this with a short -fuzztime on every push; the
// seed corpus below also runs as a plain test.
func FuzzDecode(f *testing.F) {
	// Seeds: a real checkpoint (Adam moments and carried recurrent state,
	// so the raw part has tensors of both kinds), its truncations, a
	// header-only prefix, the same frame with a tensor length the raw part
	// does not back, the same file claiming version 3, and junk.
	st := fuzzSeedState(f)
	var buf bytes.Buffer
	if err := Encode(&buf, st); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-1])
	f.Add(full[:len(full)/2])
	f.Add(full[:20])
	r := bytes.NewReader(full[headLen : len(full)-4])
	var fr frame
	if err := gob.NewDecoder(r).Decode(&fr); err != nil {
		f.Fatal(err)
	}
	fr.Lens[0] = 1 << 40
	f.Add(buildVersion(f, Version, fr, full[len(full)-4-r.Len():len(full)-4]))
	f.Add(withVersion(full, 3))
	f.Add([]byte{})
	f.Add([]byte("ZLMCKPT\x00garbage"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejected — that's a pass; not panicking is the point
		}
		// Accepted inputs must re-encode and decode back losslessly.
		var again bytes.Buffer
		if err := Encode(&again, st); err != nil {
			t.Fatalf("accepted state fails to re-encode: %v", err)
		}
		st2, err := Decode(bytes.NewReader(again.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded state fails to decode: %v", err)
		}
		if st2.Step != st.Step || st2.Ranks != st.Ranks ||
			len(st2.RNG) != len(st.RNG) || len(st2.RNN) != len(st.RNN) {
			t.Fatalf("round trip changed the state: %+v vs %+v", st2, st)
		}
	})
}

// fuzzSeedState is testState trimmed to what the fuzzer needs, with Adam
// moments and carried recurrent state (H and C) so every kind of raw tensor
// is in the corpus.
func fuzzSeedState(f *testing.F) *State {
	f.Helper()
	return &State{
		Step:       17,
		LR:         0.1,
		NextDecay:  40,
		Ranks:      2,
		ModelBytes: []byte{1, 2, 3},
		Opt:        optim.State{Kind: "adam", T: 17, M: []float32{0.5, -2}, V: []float32{0.25, 4}},
		RNG:        [][4]uint64{{1, 2, 3, 4}, {5, 6, 7, 8}},
		RNN: []model.CarriedState{
			{H: []float32{0.5, -0.25}, C: []float32{1, 2}, Rows: 1, Cols: 2},
			{H: []float32{0, 1}, Rows: 1, Cols: 2},
		},
	}
}
