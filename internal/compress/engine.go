package compress

import (
	"fmt"
	"math"
	"sort"

	"zipflm/internal/collective"
	"zipflm/internal/half"
)

// engine is one rank's gradient-compression state machine. It owns the
// per-tensor error-feedback residuals (and momentum-correction velocities)
// that carry unsent gradient mass across steps, the rank's quantizer
// stream, and the encode scratch — everything that must survive a
// checkpoint for a resumed run to replay the compressed trajectory
// bit-identically.
type engine struct {
	cfg Config
	// base is the uncompressed-tensor wire (the run's FP32/FP16 setting);
	// scaler is base when it is the FP16 compression scaler, which top-k
	// payloads then also apply to their values — compression composes with
	// the §III-C wire rather than replacing it.
	base   collective.Wire
	scaler *half.Scaler
	q8     *Quant8

	carries map[string]*carry
	idx     []int
	vals    []float32
	payload []byte
}

// carry is one tensor's cross-step compression state.
type carry struct {
	// resid accumulates gradient mass not yet sent (error feedback).
	resid []float32
	// mom is the DGC momentum-correction velocity (nil when Momentum 0).
	mom []float32
}

// newEngine builds rank's engine. cfg must be pre-normalized by
// Config.Validate; base is the run's wire for uncompressed tensors (nil
// FP32 or the FP16 scaler). The quantizer stream is derived from cfg.Seed
// and the rank so streams are independent per rank yet reproducible.
func newEngine(cfg Config, base collective.Wire, rank int) *engine {
	e := &engine{cfg: cfg, base: base, carries: make(map[string]*carry)}
	if s, ok := base.(*half.Scaler); ok {
		e.scaler = s
	}
	if cfg.Method == MethodQuant8 {
		e.q8 = NewQuant8(cfg.ChunkElems, cfg.Stochastic, cfg.Seed+0x9e3779b97f4a7c15*uint64(rank+1))
	}
	return e
}

// carryFor returns (building on first use) the named tensor's state.
func (e *engine) carryFor(name string, n int) (*carry, error) {
	c, ok := e.carries[name]
	if !ok {
		c = &carry{resid: make([]float32, n)}
		if e.cfg.Momentum > 0 {
			c.mom = make([]float32, n)
		}
		e.carries[name] = c
	}
	if len(c.resid) != n {
		return nil, fmt.Errorf("compress: tensor %q changed size %d → %d", name, len(c.resid), n)
	}
	return c, nil
}

// prepare is this rank's half of an all-reduce of one named gradient, all
// that happens before the collective. By policy, an uncompressed tensor
// crosses the ring on the base wire and a Quant8 tensor on the rank's 8-bit
// wire; prepare returns that wire. A top-k tensor is folded into the rank's
// error-feedback residual and the selection encoded into e.payload; prepare
// reports topk and the collective is the compressed all-reduce.
func (e *engine) prepare(name string, grad []float32) (wire collective.Wire, topk bool, err error) {
	switch e.cfg.methodFor(len(grad)) {
	case MethodNone:
		return e.base, false, nil
	case MethodQuant8:
		return e.q8, false, nil
	}

	// MethodTopK: momentum-corrected error-feedback accumulation (DGC).
	// The velocity u gathers the gradient with momentum; the residual v
	// gathers u; the k largest-magnitude residual entries are sent and
	// subtracted (post-wire values, so the carry is exact); a sent
	// coordinate clears its velocity so it re-accumulates from zero.
	c, err := e.carryFor(name, len(grad))
	if err != nil {
		return nil, false, err
	}
	if m := float32(e.cfg.Momentum); m > 0 {
		for i, g := range grad {
			c.mom[i] = m*c.mom[i] + g
			c.resid[i] += c.mom[i]
		}
	} else {
		for i, g := range grad {
			c.resid[i] += g
		}
	}

	ratio := e.cfg.ratioFor(name)
	k := int(math.Ceil(ratio * float64(len(grad)))) // ⌈Ratio·n⌉, as documented
	if k < 1 {
		k = 1
	}
	if cap(e.idx) < k {
		e.idx = make([]int, k)
		e.vals = make([]float32, k)
	}
	idx := selectTopK(c.resid, k, e.idx[:0])
	vals := e.vals[:len(idx)]
	for j, i := range idx {
		vals[j] = c.resid[i]
	}
	// EncodeTopK rewrites vals with the post-wire (FP16-rounded) values
	// when the scaler applies; subtract exactly what the peers will add.
	e.payload = EncodeTopK(e.payload[:0], len(grad), idx, vals, e.scaler)
	for j, i := range idx {
		c.resid[i] -= vals[j]
		if c.mom != nil {
			c.mom[i] = 0
		}
	}
	return nil, true, nil
}

// Group is the G ranks' compression engines, driven together by one caller:
// for each tensor every engine prepares its rank's contribution, then one
// batched collective reduces them. It holds the scratch that call needs, so
// reducing allocates nothing at steady state.
type Group struct {
	engines  []*engine
	wires    []collective.Wire
	parts    [][][]float32
	payloads [][]byte
}

// NewGroup builds the engines of g ranks. cfg must be pre-normalized by
// Config.Validate; base is the run's wire for uncompressed tensors (nil
// FP32 or the FP16 scaler).
func NewGroup(cfg Config, base collective.Wire, g int) *Group {
	gr := &Group{
		engines:  make([]*engine, g),
		wires:    make([]collective.Wire, g),
		parts:    make([][][]float32, g),
		payloads: make([][]byte, g),
	}
	for r := range gr.engines {
		gr.engines[r] = newEngine(cfg, base, r)
		gr.parts[r] = make([][]float32, 1)
	}
	return gr
}

// AllReduce synchronizes named dense gradients across the group through
// the policy's compressor, one collective per tensor in list order:
// parts[r][i] is rank r's gradient of names[i]. Uncompressed tensors ride
// the base wire's ring, Quant8 tensors ride the ring with each rank's 8-bit
// wire, and top-k tensors go through the compressed all-reduce with each
// rank's error-feedback residual folded in. On return rank 0's tensors hold
// the global sums (of the compressed contributions, for lossy methods); the
// other ranks' tensors are scratch.
func (gr *Group) AllReduce(comm *collective.Comm, names []string, parts [][][]float32) error {
	for i, name := range names {
		var topk bool
		for r, e := range gr.engines {
			grad := parts[r][i]
			w, tk, err := e.prepare(name, grad)
			if err != nil {
				return err
			}
			gr.wires[r], gr.parts[r][0], gr.payloads[r], topk = w, grad, e.payload, tk
		}
		if topk {
			if err := comm.AllReduceCompressedRanks(parts[0][i], gr.payloads, TopKDecoder{}); err != nil {
				return err
			}
			continue
		}
		comm.AllReduceRanks(gr.parts, gr.wires)
	}
	return nil
}

// TensorState is one tensor's serialized carry, named so restore can
// rebind it.
type TensorState struct {
	Name     string
	Residual []float32
	Momentum []float32
}

// EngineState is one rank's full compression state for checkpoints:
// residuals and velocities sorted by tensor name (deterministic bytes — the
// ckpt framing encodes no maps), plus the quantizer RNG stream (all zeros
// when the method has none).
type EngineState struct {
	Q8RNG   [4]uint64
	Tensors []TensorState
}

// Snapshot captures every rank's carry-over, in rank order, for
// checkpoints. The capture copies, so later steps do not mutate it.
func (gr *Group) Snapshot() []EngineState {
	out := make([]EngineState, len(gr.engines))
	for r, e := range gr.engines {
		if e.q8 != nil {
			out[r].Q8RNG = e.q8.State()
		}
		names := make([]string, 0, len(e.carries))
		for n := range e.carries {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			c := e.carries[n]
			ts := TensorState{Name: n, Residual: append([]float32(nil), c.resid...)}
			if c.mom != nil {
				ts.Momentum = append([]float32(nil), c.mom...)
			}
			out[r].Tensors = append(out[r].Tensors, ts)
		}
	}
	return out
}

// Restore reinstates states captured by Snapshot (possibly in a previous
// process), one per rank. The group's configuration must match the
// checkpointing run's.
func (gr *Group) Restore(states []EngineState) error {
	if len(states) != len(gr.engines) {
		return fmt.Errorf("compress: %d compression states for %d ranks", len(states), len(gr.engines))
	}
	for r, e := range gr.engines {
		st := states[r]
		if e.q8 != nil {
			if st.Q8RNG == ([4]uint64{}) {
				return fmt.Errorf("compress: checkpoint carries no quantizer stream but the engine quantizes")
			}
			e.q8.SetState(st.Q8RNG)
		}
		clear(e.carries)
		for _, ts := range st.Tensors {
			c := &carry{resid: append([]float32(nil), ts.Residual...)}
			if ts.Momentum != nil {
				if e.cfg.Momentum <= 0 {
					return fmt.Errorf("compress: checkpoint carries momentum state for %q but momentum is off", ts.Name)
				}
				c.mom = append([]float32(nil), ts.Momentum...)
			} else if e.cfg.Momentum > 0 {
				c.mom = make([]float32, len(ts.Residual))
			}
			e.carries[ts.Name] = c
		}
	}
	return nil
}
