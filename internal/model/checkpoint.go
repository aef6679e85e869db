package model

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"zipflm/internal/tensor"
)

// Checkpointing. A checkpoint captures a model's configuration and every
// parameter tensor, so long training runs (the paper's epochs are tens of
// hours) can stop and resume, and trained models can ship to inference
// users. The carried RNN state is deliberately excluded (a resumed run
// starts its lanes fresh, like an epoch boundary — the full-state trainer
// checkpoints in internal/ckpt carry it separately).
//
// A version-4 file is a small gob header followed by the weights as bytes:
//
//	gob(fileHeader)   Version, Cfg, the dense tensors' names and lengths in declaration order
//	InEmb, OutEmb     Cfg.Vocab·Cfg.Dim little-endian float32 each
//	dense slab        the values every DenseParams tensor is a view of, little-endian float32
//
// and nothing after the slab. The header lists what newLM(Cfg) declares, and
// a file whose list differs is refused: the slab is read straight into the
// new model's, so its layout has to be the one this build cuts. A file of
// any other version is refused too.

// checkpointVersion guards the wire format.
const checkpointVersion = 4

// fileHeader is the gob part of a model file.
type fileHeader struct {
	Version    int
	Cfg        Config
	DenseNames []string
	DenseLens  []int
}

// Marshal returns the model's configuration and parameters in the current
// file format, in one allocation of exactly the file's size. The encoding
// is deterministic: the same model always produces identical bytes.
func (m *LM) Marshal() ([]byte, error) {
	h := fileHeader{Version: checkpointVersion, Cfg: m.Cfg}
	for _, p := range m.dense {
		h.DenseNames = append(h.DenseNames, p.Name)
		h.DenseLens = append(h.DenseLens, len(p.Value))
	}
	var head bytes.Buffer
	if err := gob.NewEncoder(&head).Encode(h); err != nil {
		return nil, fmt.Errorf("model: save: %w", err)
	}
	out := make([]byte, head.Len()+4*(len(m.InEmb.Data)+len(m.OutEmb.Data)+len(m.values)))
	off := copy(out, head.Bytes())
	for _, x := range [][]float32{m.InEmb.Data, m.OutEmb.Data, m.values} {
		tensor.PutFloat32s(out[off:], x)
		off += 4 * len(x)
	}
	return out, nil
}

// Unmarshal decodes a checkpoint written by Marshal into a fresh
// model with those weights. The embedded Config fully determines the
// architecture. Corrupt, truncated, padded, older- or future-version inputs
// return an error, and so does a file with a NaN or ±Inf weight, naming its
// tensor: nothing non-finite is loaded, so nothing non-finite is served.
// Unmarshal never returns a half-initialized model, and it sizes nothing
// from a Config the input's own size does not bear out.
func Unmarshal(raw []byte) (*LM, error) {
	// bytes.Reader is an io.ByteReader, so gob reads its value and not one
	// byte more: what is left in r afterwards is the tensor section.
	r := bytes.NewReader(raw)
	var h fileHeader
	if err := gob.NewDecoder(r).Decode(&h); err != nil {
		return nil, fmt.Errorf("model: load: %w", err)
	}
	if h.Version != checkpointVersion {
		return nil, fmt.Errorf("model: checkpoint version %d, this build reads %d", h.Version, checkpointVersion)
	}
	cfg := h.Cfg
	if cfg.Vocab <= 0 || cfg.Dim <= 0 || cfg.Hidden <= 0 ||
		cfg.RHNDepth < 0 || cfg.Dropout < 0 || cfg.Dropout >= 1 || cfg.Sampled < 0 {
		return nil, fmt.Errorf("model: checkpoint config is invalid: %+v", cfg)
	}
	if cfg.RNN != KindLSTM && cfg.RNN != KindRHN {
		return nil, fmt.Errorf("model: checkpoint has unknown RNN kind %d", cfg.RNN)
	}
	// newLM allocates from Cfg alone; refuse a Config the tensor section
	// does not fill exactly before it does.
	rest := raw[len(raw)-r.Len():]
	if want := paramFloats(cfg); float64(len(rest)) != 4*want {
		return nil, fmt.Errorf("model: checkpoint carries %d tensor bytes, its config needs %.0f values", len(rest), want)
	}
	m := newLM(cfg, nil, nil, nil, nil, tensor.Serial{}) // zero weights, filled below
	if len(h.DenseNames) != len(m.dense) || len(h.DenseLens) != len(m.dense) {
		return nil, fmt.Errorf("model: checkpoint lists %d names and %d lengths, the model declares %d tensors",
			len(h.DenseNames), len(h.DenseLens), len(m.dense))
	}
	for i, p := range m.dense {
		if h.DenseNames[i] != p.Name || h.DenseLens[i] != len(p.Value) {
			return nil, fmt.Errorf("model: checkpoint tensor %d is %q of %d values, the model declares %q of %d",
				i, h.DenseNames[i], h.DenseLens[i], p.Name, len(p.Value))
		}
	}
	for _, dst := range [][]float32{m.InEmb.Data, m.OutEmb.Data, m.values} {
		tensor.GetFloat32s(dst, rest)
		rest = rest[4*len(dst):]
	}
	for _, p := range m.Weights() {
		if !tensor.AllFinite(p.Value) {
			return nil, fmt.Errorf("model: checkpoint tensor %q holds a NaN or infinite weight", p.Name)
		}
	}
	return m, nil
}

// paramFloats is the number of parameter values NewLM(c) creates — both
// embeddings, the recurrent layer, the projection — from the shapes alone;
// newLM sizes its dense slab from it, and Unmarshal checks a file against it.
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
