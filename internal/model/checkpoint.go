package model

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
)

// Checkpointing. A checkpoint captures a model's configuration and every
// parameter tensor, so long training runs (the paper's epochs are tens of
// hours) can stop and resume, and trained models can ship to inference
// users. The format is encoding/gob with a version header; the carried RNN
// state is deliberately excluded (a resumed run starts its lanes fresh,
// like an epoch boundary — the full-state trainer checkpoints in
// internal/ckpt carry it separately).

// checkpointVersion guards the wire format. Version 2 replaced the dense
// parameter map with name-sorted parallel slices: gob iterates maps in
// random order, so two saves of the same model produced different bytes —
// fatal for the content-hash/CRC layer internal/ckpt builds on top.
const checkpointVersion = 2

// checkpointFile is the serialized form.
type checkpointFile struct {
	Version int
	Cfg     Config
	InEmb   []float32
	OutEmb  []float32
	// DenseNames/DenseValues hold DenseParams sorted by parameter name
	// (version ≥ 2): a deterministic encoding, so identical models produce
	// byte-identical files.
	DenseNames  []string
	DenseValues [][]float32
	// Dense is the version-1 map encoding, retained so old checkpoints
	// still load.
	Dense map[string][]float32
}

// Save writes the model's configuration and parameters to w. The encoding
// is deterministic: saving the same model twice produces identical bytes.
func (m *LM) Save(w io.Writer) error {
	ck := checkpointFile{
		Version: checkpointVersion,
		Cfg:     m.Cfg,
		InEmb:   m.InEmb.Data,
		OutEmb:  m.OutEmb.Data,
	}
	params := append([]Param(nil), m.DenseParams()...) // the list itself is shared: sort a copy
	sort.Slice(params, func(i, j int) bool { return params[i].Name < params[j].Name })
	for _, p := range params {
		ck.DenseNames = append(ck.DenseNames, p.Name)
		ck.DenseValues = append(ck.DenseValues, p.Value)
	}
	if err := gob.NewEncoder(w).Encode(ck); err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	return nil
}

// Load reads a checkpoint written by Save and returns a fresh model with
// those weights. The embedded Config fully determines the architecture.
// Corrupt, truncated, or future-version inputs return an error; Load never
// returns a half-initialized model.
func Load(r io.Reader) (*LM, error) {
	var ck checkpointFile
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, fmt.Errorf("model: load: %w", err)
	}
	if ck.Version < 1 || ck.Version > checkpointVersion {
		return nil, fmt.Errorf("model: checkpoint version %d, this build reads 1..%d", ck.Version, checkpointVersion)
	}
	dense := make(map[string][]float32)
	if ck.Version == 1 {
		dense = ck.Dense
	} else {
		if len(ck.DenseNames) != len(ck.DenseValues) {
			return nil, fmt.Errorf("model: checkpoint has %d parameter names but %d tensors",
				len(ck.DenseNames), len(ck.DenseValues))
		}
		for i, name := range ck.DenseNames {
			dense[name] = ck.DenseValues[i]
		}
	}
	if ck.Cfg.Vocab <= 0 || ck.Cfg.Dim <= 0 || ck.Cfg.Hidden <= 0 {
		return nil, fmt.Errorf("model: checkpoint config is invalid: %+v", ck.Cfg)
	}
	if ck.Cfg.RNN != KindLSTM && ck.Cfg.RNN != KindRHN {
		return nil, fmt.Errorf("model: checkpoint has unknown RNN kind %d", ck.Cfg.RNN)
	}
	if ck.Cfg.RHNDepth < 0 || ck.Cfg.Dropout < 0 || ck.Cfg.Dropout >= 1 || ck.Cfg.Sampled < 0 {
		return nil, fmt.Errorf("model: checkpoint config is invalid: %+v", ck.Cfg)
	}
	m := NewLM(ck.Cfg)
	if len(ck.InEmb) != len(m.InEmb.Data) || len(ck.OutEmb) != len(m.OutEmb.Data) {
		return nil, fmt.Errorf("model: checkpoint embedding size mismatch")
	}
	copy(m.InEmb.Data, ck.InEmb)
	copy(m.OutEmb.Data, ck.OutEmb)
	for _, p := range m.DenseParams() {
		v, ok := dense[p.Name]
		if !ok {
			return nil, fmt.Errorf("model: checkpoint missing parameter %q", p.Name)
		}
		if len(v) != len(p.Value) {
			return nil, fmt.Errorf("model: checkpoint parameter %q has %d values, want %d",
				p.Name, len(v), len(p.Value))
		}
		copy(p.Value, v)
	}
	return m, nil
}
