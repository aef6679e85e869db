// Package ckpt is the fault-tolerance subsystem: full-state training
// checkpoints, a retention-managed on-disk store, and deterministic failure
// injection for the virtual-clock simulator.
//
// At the paper's scale an epoch is tens of hours across up to 128 GPUs —
// rank failures are the norm, and restart-from-scratch is the difference
// between 14.6 h and never finishing. A checkpoint here captures the whole
// training state, not just weights: model parameters (the model package's
// deterministic file encoding), optimizer moments, the global
// step and LR-schedule position, per-rank RNG stream states, and per-rank
// carried recurrent state. Restoring one therefore makes a resumed run
// bit-identical to an uninterrupted one — the correctness contract the
// trainer tests enforce.
//
// The file format is framed for production storage: a magic + version
// header, a length-prefixed payload, and a trailing CRC-32C over
// everything before it, so bit rot, truncation, and version skew are all
// detected on Open (never a panic, never a half-initialized state). Files
// are written atomically (tmp + rename) by WriteFile and the Dir store. It
// is the only weights file: zipflm-train -save writes one, and every reader
// opens a file or a directory's newest checkpoint through Open.
//
// Inside the payload only the small things are gob; every tensor — the
// model file, the optimizer moments, carried recurrent state — travels as
// little-endian float32 bytes, streamed through the running CRC into the
// file without a second copy of the payload in memory (see Encode for the
// layout). A checkpoint is written inside the training
// loop's stall, and gob's per-element number encoding was most of that
// stall and 1.8× the bytes.
package ckpt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/tensor"
)

// Version guards the checkpoint file format: a file of any other version is
// refused. (ModelBytes carries the model file's own version.)
const Version = 4

// magic identifies a zipflm full-state checkpoint file.
var magic = [8]byte{'Z', 'L', 'M', 'C', 'K', 'P', 'T', 0}

// headLen is magic + version + payload length.
const headLen = 8 + 4 + 8

// crcTable is CRC-32C (Castagnoli), the polynomial storage systems use.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// State is the complete training state at a global-step boundary. The
// ranks share one set of weights and one optimizer (the §II-B invariant),
// so one copy of each is stored; RNG streams and carried recurrent state
// are per rank.
type State struct {
	// Step is the global training step the state was captured at.
	Step int
	// LR and NextDecay are the LR-decay schedule position.
	LR        float64
	NextDecay int
	// Ranks is the cluster size G of the checkpointing run.
	Ranks int
	// ModelBytes is the model file encoding (LM.Marshal) of the shared
	// weights, deterministic bytes. A decoded state's ModelBytes aliases
	// the buffer the frame was read into.
	ModelBytes []byte
	// Opt is the dense-optimizer state (Adam's moment slabs + step
	// counter; SGD's is its Kind alone).
	Opt optim.State
	// RNG holds each rank's model RNG stream (dropout masks), in rank
	// order.
	RNG [][4]uint64
	// RNN holds each rank's carried recurrent state for stateful
	// (truncated-BPTT) runs; nil for stateless runs.
	RNN []model.CarriedState
}

// LM decodes the embedded model into a fresh replica.
func (s *State) LM() (*model.LM, error) {
	return model.Unmarshal(s.ModelBytes)
}

// frame is the gob part of a payload.
type frame struct {
	// State is the checkpointed state with ModelBytes and every float32
	// slice emptied: scalars, the optimizer kind, shapes and RNG streams only.
	State State
	// ModelLen is len(ModelBytes); Lens holds the length of each emptied
	// float32 slice, in sections order.
	ModelLen int
	Lens     []int
}

// sections lists every float32 tensor a State holds, in the order a frame
// stores them: Adam's moment slabs M and V, then each rank's carried
// recurrent state (H then C).
func sections(st *State) []*[]float32 {
	secs := []*[]float32{&st.Opt.M, &st.Opt.V}
	for r := range st.RNN {
		secs = append(secs, &st.RNN[r].H, &st.RNN[r].C)
	}
	return secs
}

// skeleton copies st without its tensors: a shallow copy whose tensor-holding
// containers are cloned, so that emptying every slot sections names in the
// copy leaves st alone. Anything else a State (or a type it embeds) holds
// rides along in gob without this package knowing its name.
func skeleton(st *State) State {
	sk := *st
	sk.ModelBytes = nil
	sk.RNN = slices.Clone(st.RNN)
	for _, sec := range sections(&sk) {
		*sec = nil
	}
	return sk
}

// Encode writes st to w in the framed format:
//
//	magic[8] | version u32 | payloadLen u64 | payload | crc32c u32
//
// with the integers little-endian and the CRC over everything before it. The
// payload is
//
//	gob(frame) | ModelBytes | tensors
//
// where the gob value is the State with its tensors emptied plus their
// lengths (no maps, so identical states produce identical bytes), ModelBytes
// is the model file as captured, and the tensors are the float32 slices of
// sections, little-endian, back to back. Every size is known before the
// first byte is written, so the frame streams through the running CRC into
// w; the only buffers are the gob value and one 64 KiB block.
func Encode(w io.Writer, st *State) error {
	fr := frame{State: skeleton(st), ModelLen: len(st.ModelBytes)}
	secs := sections(st)
	floats := 0
	for _, sec := range secs {
		fr.Lens = append(fr.Lens, len(*sec))
		floats += len(*sec)
	}
	var head bytes.Buffer
	head.Write(make([]byte, headLen))
	if err := gob.NewEncoder(&head).Encode(fr); err != nil {
		return fmt.Errorf("ckpt: encode: %w", err)
	}
	h := head.Bytes()
	copy(h, magic[:])
	binary.LittleEndian.PutUint32(h[8:], Version)
	binary.LittleEndian.PutUint64(h[12:], uint64(len(h)-headLen+len(st.ModelBytes)+4*floats))

	crc := crc32.New(crcTable)
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 64<<10)
	bw.Write(h)
	bw.Write(st.ModelBytes) // larger than the buffer: passed through, not copied
	for _, sec := range secs {
		for x := *sec; len(x) > 0; {
			// Convert straight into the writer's free space.
			b := bw.AvailableBuffer()
			n := min(len(x), cap(b)/4)
			if n == 0 {
				// No room for one float. A failed flush leaves the buffer
				// full, so it has to end the loop, not restart it.
				if err := bw.Flush(); err != nil {
					return fmt.Errorf("ckpt: write: %w", err)
				}
				continue
			}
			tensor.PutFloat32s(b[:4*n], x[:n])
			bw.Write(b[:4*n])
			x = x[n:]
		}
	}
	// A bufio.Writer keeps its first error: Flush reports any of the above.
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("ckpt: write: %w", err)
	}
	if err := binary.Write(w, binary.LittleEndian, crc.Sum32()); err != nil {
		return fmt.Errorf("ckpt: write: %w", err)
	}
	return nil
}

// Decode reads a whole checkpoint from r; see decode.
func Decode(r io.Reader) (*State, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: read: %w", err)
	}
	return decode(raw)
}

// decode interprets a checkpoint written by Encode, verifying magic,
// version, length, and CRC before any of the payload is interpreted.
// Corrupt (bit-flipped), truncated, padded, older- and future-version
// inputs return errors, and every tensor's length is
// checked against the bytes that remain before anything is allocated for
// it, so no input makes decode allocate more than its own size.
func decode(raw []byte) (*State, error) {
	if len(raw) < headLen+4 {
		return nil, fmt.Errorf("ckpt: truncated: %d bytes is shorter than the smallest checkpoint", len(raw))
	}
	if !bytes.Equal(raw[:8], magic[:]) {
		return nil, errors.New("ckpt: not a checkpoint file (bad magic)")
	}
	version := binary.LittleEndian.Uint32(raw[8:12])
	if version != Version {
		return nil, fmt.Errorf("ckpt: version %d, this build reads %d", version, Version)
	}
	payloadLen := binary.LittleEndian.Uint64(raw[12:headLen])
	if payloadLen != uint64(len(raw)-headLen-4) {
		return nil, fmt.Errorf("ckpt: truncated or padded: header claims %d payload bytes, file carries %d",
			payloadLen, len(raw)-headLen-4)
	}
	body := raw[:len(raw)-4]
	wantCRC := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.Checksum(body, crcTable); got != wantCRC {
		return nil, fmt.Errorf("ckpt: CRC mismatch (stored %08x, computed %08x): checkpoint is corrupt", wantCRC, got)
	}
	// bytes.Reader is an io.ByteReader, so gob reads its value and not one
	// byte more: what r has left afterwards is the raw part.
	var fr frame
	st := &fr.State
	r := bytes.NewReader(body[headLen:])
	if err := gob.NewDecoder(r).Decode(&fr); err != nil {
		return nil, fmt.Errorf("ckpt: decode payload: %w", err)
	}
	rest := body[len(body)-r.Len():]
	if fr.ModelLen < 0 || fr.ModelLen > len(rest) {
		return nil, fmt.Errorf("ckpt: model of %d bytes, %d remain", fr.ModelLen, len(rest))
	}
	st.ModelBytes, rest = rest[:fr.ModelLen:fr.ModelLen], rest[fr.ModelLen:]
	secs := sections(st)
	if len(secs) != len(fr.Lens) {
		return nil, fmt.Errorf("ckpt: %d tensor lengths for %d tensors", len(fr.Lens), len(secs))
	}
	for i, sec := range secs {
		n := fr.Lens[i]
		if n < 0 || n > len(rest)/4 {
			return nil, fmt.Errorf("ckpt: tensor %d of %d values, %d bytes remain", i, n, len(rest))
		}
		*sec = nil // an empty tensor decodes to nil, as gob had it
		if n > 0 {
			*sec = make([]float32, n)
			tensor.GetFloat32s(*sec, rest)
		}
		rest = rest[4*n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("ckpt: %d payload bytes after the last tensor", len(rest))
	}
	if st.Ranks <= 0 || st.Step < 0 {
		return nil, fmt.Errorf("ckpt: invalid state (ranks %d, step %d)", st.Ranks, st.Step)
	}
	if len(st.RNG) != 0 && len(st.RNG) != st.Ranks {
		return nil, fmt.Errorf("ckpt: %d RNG streams for %d ranks", len(st.RNG), st.Ranks)
	}
	if len(st.RNN) != 0 && len(st.RNN) != st.Ranks {
		return nil, fmt.Errorf("ckpt: %d carried states for %d ranks", len(st.RNN), st.Ranks)
	}
	return st, nil
}

// WriteFile writes st to path atomically: the bytes land in a temporary
// file in the same directory, are synced, and are renamed into place, so a
// crash mid-write can never leave a half-written checkpoint under the
// final name. The file is readable by everyone and writable by its owner
// (0644), as os.Create leaves a file under the usual umask, so a server
// running under another account can load it; os.CreateTemp alone would
// leave it 0600.
func WriteFile(path string, st *State) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: chmod: %w", err)
	}
	if err := Encode(tmp, st); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("ckpt: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("ckpt: rename into place: %w", err)
	}
	return nil
}

// Open reads and validates the checkpoint at path, or a directory's newest
// checkpoint (Dir.Latest), reading the file in one allocation of its size.
func Open(path string) (*State, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return (&Dir{path: path}).Latest()
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	st, err := decode(raw)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return st, nil
}
