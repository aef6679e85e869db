package model

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"zipflm/internal/tensor"
)

// Checkpointing. A checkpoint captures a model's configuration and every
// parameter tensor, so long training runs (the paper's epochs are tens of
// hours) can stop and resume, and trained models can ship to inference
// users. The carried RNN state is deliberately excluded (a resumed run
// starts its lanes fresh, like an epoch boundary — the full-state trainer
// checkpoints in internal/ckpt carry it separately).
//
// A version-3 file is a small gob header followed by the tensors as bytes:
//
//	gob(fileHeader)   Version, Cfg, the dense parameters' names (ascending) and lengths
//	InEmb, OutEmb     Cfg.Vocab·Cfg.Dim little-endian float32 each
//	dense tensors     in header order, little-endian float32
//
// and nothing after the last tensor. Versions 1 and 2 were one gob value
// that carried every float through gob's per-element number encoding (5.8
// bytes and one reflective call per parameter); they still load, nothing
// writes them.

// checkpointVersion guards the wire format. Version 2 replaced version 1's
// dense parameter map with name-sorted parallel slices (gob iterates maps
// in random order, so two saves of one model differed — fatal for the
// CRC/content-hash layer internal/ckpt builds on top); version 3 moved the
// tensors out of gob.
const checkpointVersion = 3

// fileHeader is the gob part of a version-3 file.
type fileHeader struct {
	Version    int
	Cfg        Config
	DenseNames []string
	DenseLens  []int
}

// checkpointFile is what Load decodes the leading gob value into: the
// header's fields (gob matches fields by name) plus the tensors that
// versions 1 and 2 kept inside it.
type checkpointFile struct {
	Version    int
	Cfg        Config
	DenseNames []string
	DenseLens  []int // version 3

	InEmb, OutEmb []float32            // versions 1 and 2
	DenseValues   [][]float32          // version 2, parallel to DenseNames
	Dense         map[string][]float32 // version 1
}

// Marshal returns the model's configuration and parameters in the current
// file format, in one allocation of exactly the file's size. The encoding
// is deterministic: the same model always produces identical bytes.
func (m *LM) Marshal() ([]byte, error) {
	params := append([]Param(nil), m.DenseParams()...) // the list itself is shared: sort a copy
	sort.Slice(params, func(i, j int) bool { return params[i].Name < params[j].Name })
	h := fileHeader{Version: checkpointVersion, Cfg: m.Cfg}
	floats := len(m.InEmb.Data) + len(m.OutEmb.Data)
	for _, p := range params {
		h.DenseNames = append(h.DenseNames, p.Name)
		h.DenseLens = append(h.DenseLens, len(p.Value))
		floats += len(p.Value)
	}
	var head bytes.Buffer
	if err := gob.NewEncoder(&head).Encode(h); err != nil {
		return nil, fmt.Errorf("model: save: %w", err)
	}
	out := make([]byte, head.Len()+4*floats)
	off := copy(out, head.Bytes())
	put := func(x []float32) {
		tensor.PutFloat32s(out[off:], x)
		off += 4 * len(x)
	}
	put(m.InEmb.Data)
	put(m.OutEmb.Data)
	for _, p := range params {
		put(p.Value)
	}
	return out, nil
}

// Save writes Marshal's bytes to w.
func (m *LM) Save(w io.Writer) error {
	b, err := m.Marshal()
	if err != nil {
		return err
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	return nil
}

// Load reads a whole checkpoint from r and decodes it with Unmarshal.
func Load(r io.Reader) (*LM, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("model: load: %w", err)
	}
	return Unmarshal(raw)
}

// stored is one tensor as a file holds it: floats gob decoded (versions 1
// and 2) or the file's own bytes, four per element (version 3).
type stored struct {
	floats []float32
	bytes  []byte
}

func (s stored) len() int { return len(s.floats) + len(s.bytes)/4 }

// into fills a model tensor from s once the lengths are known to agree.
func (s stored) into(dst []float32, name string) error {
	if s.len() != len(dst) {
		return fmt.Errorf("model: checkpoint parameter %q has %d values, want %d", name, s.len(), len(dst))
	}
	if s.bytes != nil {
		tensor.GetFloat32s(dst, s.bytes)
	} else {
		copy(dst, s.floats)
	}
	return nil
}

// Unmarshal decodes a checkpoint written by Marshal or Save — or by the
// version-1 and version-2 writers — into a fresh model with those weights.
// The embedded Config fully determines the architecture. Corrupt,
// truncated, padded or future-version inputs return an error; Unmarshal
// never returns a half-initialized model, and it sizes nothing from a
// length or a Config the input's own size does not bear out.
func Unmarshal(raw []byte) (*LM, error) {
	// bytes.Reader is an io.ByteReader, so gob reads its value and not one
	// byte more: what is left in r afterwards is the tensor section.
	r := bytes.NewReader(raw)
	var ck checkpointFile
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("model: load: %w", err)
	}
	if ck.Version < 1 || ck.Version > checkpointVersion {
		return nil, fmt.Errorf("model: checkpoint version %d, this build reads 1..%d", ck.Version, checkpointVersion)
	}
	cfg := ck.Cfg
	if cfg.Vocab <= 0 || cfg.Dim <= 0 || cfg.Hidden <= 0 ||
		cfg.RHNDepth < 0 || cfg.Dropout < 0 || cfg.Dropout >= 1 || cfg.Sampled < 0 {
		return nil, fmt.Errorf("model: checkpoint config is invalid: %+v", cfg)
	}
	if cfg.RNN != KindLSTM && cfg.RNN != KindRHN {
		return nil, fmt.Errorf("model: checkpoint has unknown RNN kind %d", cfg.RNN)
	}

	// Every stored tensor by name, the embeddings under the names Weights gives
	// them, which no dense parameter has (a file that uses them anyway fails
	// the count below).
	const inEmb, outEmb = "InEmb", "OutEmb"
	tensors := make(map[string]stored)
	rest := raw[len(raw)-r.Len():]
	switch ck.Version {
	case 1:
		for name, v := range ck.Dense {
			tensors[name] = stored{floats: v}
		}
		tensors[inEmb], tensors[outEmb] = stored{floats: ck.InEmb}, stored{floats: ck.OutEmb}
	case 2:
		if len(ck.DenseNames) != len(ck.DenseValues) {
			return nil, fmt.Errorf("model: checkpoint has %d parameter names but %d tensors",
				len(ck.DenseNames), len(ck.DenseValues))
		}
		for i, name := range ck.DenseNames {
			tensors[name] = stored{floats: ck.DenseValues[i]}
		}
		tensors[inEmb], tensors[outEmb] = stored{floats: ck.InEmb}, stored{floats: ck.OutEmb}
	default:
		if len(ck.DenseNames) != len(ck.DenseLens) {
			return nil, fmt.Errorf("model: checkpoint has %d parameter names but %d lengths",
				len(ck.DenseNames), len(ck.DenseLens))
		}
		// Cutting only slices the input: a hostile length (or an overflowed
		// Vocab·Dim) can at worst cut the wrong bytes, which the count
		// against paramFloats below then refuses.
		names := append([]string{inEmb, outEmb}, ck.DenseNames...)
		lens := append([]int{cfg.Vocab * cfg.Dim, cfg.Vocab * cfg.Dim}, ck.DenseLens...)
		for i, name := range names {
			if i > 2 && name <= names[i-1] {
				return nil, fmt.Errorf("model: checkpoint parameter names out of order (%q after %q)", name, names[i-1])
			}
			n := lens[i]
			if n < 0 || n > len(rest)/4 {
				return nil, fmt.Errorf("model: checkpoint tensor %q of %d values, %d bytes remain", name, n, len(rest))
			}
			tensors[name], rest = stored{bytes: rest[: 4*n : 4*n]}, rest[4*n:]
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("model: checkpoint has %d bytes after its last tensor", len(rest))
	}
	// newLM allocates from Cfg alone; refuse a Config the stored tensors do
	// not fill exactly before it does.
	floats := 0.0
	for _, s := range tensors {
		floats += float64(s.len())
	}
	if want := paramFloats(cfg); floats != want {
		return nil, fmt.Errorf("model: checkpoint carries %.0f values, its config needs %.0f", floats, want)
	}

	m := newLM(cfg, nil, nil, nil, nil, tensor.Default()) // zero weights, each filled below
	params := m.Weights()
	if len(tensors) != len(params) {
		return nil, fmt.Errorf("model: checkpoint has %d tensors, the model %d", len(tensors), len(params))
	}
	for _, p := range params {
		s, ok := tensors[p.Name]
		if !ok {
			return nil, fmt.Errorf("model: checkpoint missing parameter %q", p.Name)
		}
		if err := s.into(p.Value, p.Name); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// paramFloats is the number of parameter values NewLM(c) creates — both
// embeddings, the recurrent layer, the projection — from the shapes alone;
// newLM sizes its dense slab from it.
// In float64 a hostile Config cannot overflow it, and it is exact wherever
// it can equal a count of values actually present (below 2⁵³).
func paramFloats(c Config) float64 {
	v, d, h := float64(c.Vocab), float64(c.Dim), float64(c.Hidden)
	n := 2*v*d + d*h + d
	if c.RNN == KindLSTM {
		return n + 4*h*(d+h+1)
	}
	depth := float64(c.RHNDepth)
	if depth == 0 {
		depth = 2
	}
	return n + 2*h*d + depth*2*h*(h+1)
}
