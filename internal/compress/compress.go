// Package compress is the adaptive gradient-compression subsystem: the next
// multiplier on wire bytes after the paper's own uniqueness (§III-A) and
// FP16 compression-scaling (§III-C) techniques, composing with — not
// replacing — both.
//
// Two mechanisms are provided, mirroring the two most-cited directions in
// gradient compression:
//
//   - Top-k sparsification with error feedback (Deep-Gradient-Compression
//     style): each rank accumulates its dense gradient into a per-tensor
//     residual, sends only the k largest-magnitude entries, and carries the
//     rest into the next step. An optional momentum correction accumulates
//     a velocity before the residual so delayed coordinates still arrive
//     with their momentum, which is what preserves convergence at
//     aggressive ratios. The exchange itself is the compressed all-reduce
//     of internal/collective: payloads all-gather and are decode-summed in
//     rank order, so the result does not depend on scheduling.
//
//   - 8-bit stochastic quantization with per-chunk scales (1-bit-SGD
//     lineage, widened to int8): Quant8 implements collective.Wire, so it
//     rides the existing ring all-reduce exactly like the FP16 scaler —
//     every hop's payload is quantized to one byte per element plus one
//     FP32 scale per chunk. Stochastic rounding draws from the
//     deterministic per-rank RNG streams (internal/rng), keeping reruns
//     and checkpoint-resumed runs bit-identical.
//
// A Zipf-aware policy layer picks per-tensor compressors: small dense
// tensors (biases, gates below MinElems) stay uncompressed — their payload
// is latency-bound, not bandwidth-bound — while embedding-class tensors can
// run a separate, more aggressive ratio derived from the corpus's measured
// type–token law (ZipfTune, via internal/powerlaw): a V×D output-embedding
// gradient only has non-zero rows for the U_g ≪ V words of the global
// batch, so its top-k ratio follows U_g/V from the same Figure-1 law the
// sparse exchanges exploit.
//
// Each rank's engine owns its error-feedback state and quantizer stream. A
// Group holds the G engines and drives them from one goroutine: for each
// tensor every engine prepares its rank's contribution, then one batched
// collective reduces them. The engines' state is snapshotted into
// checkpoints (internal/ckpt) so a resumed run replays the exact compressed
// trajectory — the same bit-identity contract the trainer enforces for
// weights, optimizer moments and RNG streams.
package compress

import (
	"fmt"
	"strings"

	"zipflm/internal/powerlaw"
)

// Method selects the compressor applied to large dense gradient tensors.
type Method int

const (
	// MethodNone disables compression (the base wire still applies).
	MethodNone Method = iota
	// MethodQuant8 quantizes the ring all-reduce wire to 8 bits per
	// element with per-chunk scales.
	MethodQuant8
	// MethodTopK sends only the k = ⌈Ratio·n⌉ largest-magnitude entries,
	// carrying the remainder in an error-feedback residual.
	MethodTopK
)

// String names the method for reports.
func (m Method) String() string {
	switch m {
	case MethodNone:
		return "none"
	case MethodQuant8:
		return "q8"
	case MethodTopK:
		return "topk"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Config describes one run's gradient-compression policy. The zero value is
// invalid; use a Method plus defaults filled in by Validate callers (the
// trainer validates on construction).
type Config struct {
	// Method is the compressor for large dense tensors.
	Method Method
	// Ratio is the top-k fraction of entries kept per tensor per step
	// (MethodTopK). Must be in (0, 1].
	Ratio float64
	// EmbedRatio, when positive, overrides Ratio for embedding-class
	// tensors (names containing "emb") — typically set by ZipfTune from
	// the corpus's type–token law.
	EmbedRatio float64
	// Momentum enables DGC-style momentum-corrected accumulation: a
	// velocity u ← Momentum·u + g feeds the residual instead of the raw
	// gradient, and a selected coordinate clears its velocity. 0 disables.
	Momentum float64
	// MinElems exempts small tensors: below this element count the tensor
	// travels uncompressed on the base wire (latency-bound payloads gain
	// nothing from shrinking). 0 means DefaultMinElems.
	MinElems int
	// ChunkElems is the Quant8 scale-block size (0 = DefaultChunkElems).
	ChunkElems int
	// Stochastic selects stochastic rounding for Quant8 (unbiased in
	// expectation); false rounds to nearest.
	Stochastic bool
	// Seed derives the per-rank quantization RNG streams.
	Seed uint64

	// RankAlpha is the fitted rank-frequency exponent ZipfTune records
	// (reporting only; 0 when never tuned).
	RankAlpha float64
}

// Defaults for zero Config fields.
const (
	DefaultMinElems   = 1024
	DefaultChunkElems = 256
)

// Validate checks the configuration and fills zero fields with defaults,
// returning the normalized copy.
func (c Config) Validate() (Config, error) {
	switch c.Method {
	case MethodNone, MethodQuant8, MethodTopK:
	default:
		return c, fmt.Errorf("compress: unknown method %d", int(c.Method))
	}
	if c.Method == MethodTopK {
		if c.Ratio <= 0 || c.Ratio > 1 {
			return c, fmt.Errorf("compress: top-k ratio %v outside (0, 1]", c.Ratio)
		}
		if c.EmbedRatio < 0 || c.EmbedRatio > 1 {
			return c, fmt.Errorf("compress: embedding ratio %v outside [0, 1]", c.EmbedRatio)
		}
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return c, fmt.Errorf("compress: momentum %v outside [0, 1)", c.Momentum)
	}
	if c.MinElems == 0 {
		c.MinElems = DefaultMinElems
	}
	if c.ChunkElems <= 0 {
		c.ChunkElems = DefaultChunkElems
	}
	return c, nil
}

// embeddingClass reports whether a tensor name denotes an embedding-shaped
// gradient (one row per vocabulary word), the class whose sparsity follows
// the corpus's Zipf law rather than the architecture.
func embeddingClass(name string) bool {
	return strings.Contains(name, "emb")
}

// methodFor applies the policy to one tensor: the configured method for
// large tensors, uncompressed below the size floor.
func (c Config) methodFor(elems int) Method {
	if c.Method == MethodNone || elems < c.MinElems {
		return MethodNone
	}
	return c.Method
}

// ratioFor returns the top-k ratio for one tensor, with the Zipf-derived
// embedding override when set.
func (c Config) ratioFor(name string) float64 {
	if c.EmbedRatio > 0 && embeddingClass(name) {
		return c.EmbedRatio
	}
	return c.Ratio
}

// ZipfTune derives the embedding-class ratio from a token stream: it fits
// the type–token law U(N) = C·N^α (the paper's Figure 1) over log-spaced
// prefixes of the stream, predicts the unique-word count of one global
// batch, and sets EmbedRatio = U(globalBatch)/vocab — the expected fraction
// of embedding rows a step actually touches. It also records the
// rank-frequency exponent (powerlaw.FitRankFrequency) for reports. Streams
// too degenerate to fit (empty, single word type) leave the config
// untouched and return the fit error.
func (c *Config) ZipfTune(tokens []int, vocab, globalBatch int) error {
	rf, err := powerlaw.FitRankFrequency(tokens)
	if err != nil {
		return err
	}
	// Type–token points: unique count in growing prefixes, log-spaced so
	// the fit spans the curve rather than oversampling the tail.
	var xs, ys []float64
	seen := make(map[int]struct{})
	next := 16
	for i, w := range tokens {
		seen[w] = struct{}{}
		if i+1 == next || i == len(tokens)-1 {
			xs = append(xs, float64(i+1))
			ys = append(ys, float64(len(seen)))
			next *= 2
		}
	}
	tt, err := powerlaw.FitXY(xs, ys)
	if err != nil {
		return err
	}
	u := tt.Predict(float64(globalBatch))
	ratio := u / float64(vocab)
	if ratio > 1 {
		ratio = 1
	}
	if ratio <= 0 {
		return fmt.Errorf("compress: degenerate type-token fit %v", tt)
	}
	c.EmbedRatio = ratio
	c.RankAlpha = rf.Alpha
	return nil
}
