package compress

import (
	"math"

	"zipflm/internal/rng"
)

// Quant8 is 8-bit gradient quantization with per-chunk scales, packaged as
// a collective.Wire: each wire crossing maps a chunk of ChunkElems values
// onto the int8 grid q·(max|v|/127) and back. It plugs into the ring
// all-reduce exactly where the FP16 scaler does — every hop's payload is
// one byte per element plus one FP32 scale per chunk — so wire bytes drop
// 4× against FP32 and 2× against FP16 while the reduction algorithm stays
// untouched.
//
// Rounding is deterministic. Nearest mode is stateless. Stochastic mode —
// unbiased in expectation, the property that keeps quantized SGD converging
// — draws one variate per element from a deterministic xoshiro stream
// (internal/rng), so a rank's sequence of RoundTrip calls is reproducible
// across reruns, and State/SetState let checkpoints carry the stream across
// a resume. One Quant8 belongs to one rank; ranks may hold differently
// seeded instances because the reduced value of a chunk is its owner's
// rounding, whatever the other ranks drew (see collective.AllReduceRanks —
// partial sums are re-rounded per hop, so quantization error compounds with
// G, as on real fabrics).
type Quant8 struct {
	// ChunkElems is the scale-block size (DefaultChunkElems when built by
	// NewQuant8 with 0).
	ChunkElems int
	// Stochastic selects stochastic rounding; false rounds to nearest.
	Stochastic bool
	r          *rng.RNG
	// codes is RoundTrip's per-chunk scratch, grown on demand so the ring
	// hot path stays allocation-free at steady state.
	codes []int8
}

// NewQuant8 returns a per-rank quantizer. The seed matters only in
// stochastic mode.
func NewQuant8(chunkElems int, stochastic bool, seed uint64) *Quant8 {
	if chunkElems <= 0 {
		chunkElems = DefaultChunkElems
	}
	return &Quant8{ChunkElems: chunkElems, Stochastic: stochastic, r: rng.New(seed)}
}

// WireBytes implements collective.Wire: one byte per element plus one FP32
// scale per chunk.
func (q *Quant8) WireBytes(n int) int {
	if n <= 0 {
		return 0
	}
	chunks := (n + q.ChunkElems - 1) / q.ChunkElems
	return n + 4*chunks
}

// WireName identifies this format in telemetry labels
// (collective.WireNamer).
func (q *Quant8) WireName() string { return "q8" }

// RoundTrip implements collective.Wire: quantize x to the per-chunk int8
// grid in place, encoding then decoding one chunk at a time. All-zero chunks
// pass through untouched (their scale is degenerate and a real encoder would
// skip them).
func (q *Quant8) RoundTrip(x []float32) {
	if cap(q.codes) < q.ChunkElems {
		q.codes = make([]int8, q.ChunkElems)
	}
	for lo := 0; lo < len(x); lo += q.ChunkElems {
		hi := lo + q.ChunkElems
		if hi > len(x) {
			hi = len(x)
		}
		c := x[lo:hi]
		codes := q.codes[:len(c)]
		if scale := q.encodeChunk(codes, c); scale != 0 {
			decodeChunk(c, codes, scale)
		}
	}
}

// encodeChunk quantizes one scale block into codes, sanitizing c in place,
// and returns the chunk scale (0 when the sanitized chunk is all zero).
func (q *Quant8) encodeChunk(codes []int8, c []float32) float32 {
	var maxAbs float32
	for i, v := range c {
		// Sanitize non-finite elements before the scale is derived, the
		// way every wire format here clips overflow (half.Scaler and
		// EncodeTopK saturate to max finite): an Inf shipped on the ring
		// would sum into every replica and poison training irrecoverably.
		if math.IsInf(float64(v), 0) {
			v = float32(math.Copysign(math.MaxFloat32, float64(v)))
			c[i] = v
		} else if math.IsNaN(float64(v)) {
			v = 0
			c[i] = 0
		}
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range codes {
			codes[i] = 0
		}
		return 0
	}
	scale := maxAbs / 127
	inv := 1 / scale
	for i, v := range c {
		t := v * inv
		var grid float32
		if q.Stochastic {
			lo := float32(math.Floor(float64(t)))
			if q.r.Float32() < t-lo {
				grid = lo + 1
			} else {
				grid = lo
			}
		} else {
			grid = float32(math.Round(float64(t)))
		}
		if grid > 127 {
			grid = 127
		} else if grid < -127 {
			grid = -127
		}
		codes[i] = int8(grid)
	}
	return scale
}

// decodeChunk expands one scale block: dst[i] = codes[i]·scale, clamped back
// to finite. (scale = maxAbs/127 rounds to nearest, so 127·scale can land one
// ulp past the float32 range at extreme magnitudes; clamp rather than ship
// Inf.)
func decodeChunk(dst []float32, codes []int8, scale float32) {
	for i, g := range codes {
		r := float32(g) * scale
		if math.IsInf(float64(r), 0) {
			r = float32(math.Copysign(math.MaxFloat32, float64(r)))
		}
		dst[i] = r
	}
}

// State exposes the stochastic-rounding stream for checkpoints.
func (q *Quant8) State() [4]uint64 { return q.r.State() }

// SetState restores a stream captured by State.
func (q *Quant8) SetState(s [4]uint64) { q.r.SetState(s) }
