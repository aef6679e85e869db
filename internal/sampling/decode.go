package sampling

import (
	"fmt"
	"math"
	"sort"

	"zipflm/internal/rng"
	"zipflm/internal/tensor"
)

// DecodeOpts configures how one token is drawn from next-token logits at
// inference time. The zero value (temperature 0) is greedy argmax.
type DecodeOpts struct {
	// Temperature rescales the logits before the softmax: 1 samples the
	// model's distribution, <1 sharpens it, >1 flattens it, 0 is greedy
	// argmax. Negative values panic.
	Temperature float64
	// TopK, when positive, restricts sampling to the K most probable
	// tokens (renormalized). 0 disables the filter.
	TopK int
	// TopP, when in (0, 1), restricts sampling to the smallest set of
	// tokens whose cumulative probability reaches P (nucleus sampling,
	// renormalized). 0 and 1 disable the filter. Applied after TopK.
	TopP float64
}

// Validate reports whether the options are usable (serving front ends call
// this to reject bad requests before they reach a worker; Decoder.Sample
// panics instead, like the rest of the model hot path).
func (o DecodeOpts) Validate() error {
	if o.Temperature < 0 || math.IsNaN(o.Temperature) {
		return fmt.Errorf("sampling: invalid temperature %v", o.Temperature)
	}
	if o.TopK < 0 {
		return fmt.Errorf("sampling: negative top-k %d", o.TopK)
	}
	if o.TopP < 0 || o.TopP > 1 || math.IsNaN(o.TopP) {
		return fmt.Errorf("sampling: top-p %v outside [0, 1]", o.TopP)
	}
	return nil
}

// restricted reports whether a sorted candidate prefix is needed.
func (o DecodeOpts) restricted() bool {
	return o.TopK > 0 || (o.TopP > 0 && o.TopP < 1)
}

// Decoder draws tokens from logit vectors. It owns reusable scratch so the
// generation loop performs no per-token allocation; one Decoder serves any
// number of sequences but must not be shared between goroutines. The input
// logits are never modified (cached logit rows can be sampled repeatedly).
type Decoder struct {
	probs []float32
	idx   []int
}

// NewDecoder returns a Decoder for logit vectors of the given length.
func NewDecoder(vocab int) *Decoder {
	if vocab <= 0 {
		panic("sampling: NewDecoder needs a positive vocabulary size")
	}
	return &Decoder{probs: make([]float32, vocab), idx: make([]int, vocab)}
}

// Sample draws one token id from softmax(logits/temperature), restricted by
// the top-k/top-p filters. It is deterministic given r, draws at most one
// variate from r per call (exactly one unless temperature is 0), and leaves
// logits untouched. Logits with no distribution to draw from — a NaN among
// them, or nothing but −Inf — fall back to argmax, the variate still drawn;
// +Inf logits share the whole mass (tensor.ExpSumRow).
func (d *Decoder) Sample(logits []float32, opts DecodeOpts, r *rng.RNG) int {
	if len(logits) != len(d.probs) {
		panic(fmt.Sprintf("sampling: Decoder sized for %d logits, got %d", len(d.probs), len(logits)))
	}
	if err := opts.Validate(); err != nil {
		panic(err.Error())
	}
	if opts.TopK >= len(logits) {
		opts.TopK = 0 // a cut wider than the vocabulary restricts nothing
	}
	if opts.Temperature == 0 {
		return argmax(logits)
	}
	if math.IsInf(float64(float32(1/opts.Temperature)), 1) {
		// A temperature so small (below ≈2.9e-39) that 1/T overflows float32
		// would scale the logits to ±Inf and NaN and the softmax to NaN;
		// its limit is the greedy choice. The variate is drawn all the same:
		// a positive temperature always costs the caller's RNG exactly one.
		r.Float64()
		return argmax(logits)
	}

	// Pure top-k never needs the full softmax or a full sort: selection on
	// raw logits is selection on probabilities (temperature scaling is
	// monotone), so a k-bounded heap scan plus a k-element softmax does it
	// in O(V log k) — the per-token cost that would otherwise dominate
	// batched serving, since sampling is per-sequence work batching cannot
	// amortize.
	if opts.TopK > 0 && opts.TopK < len(logits) && !(opts.TopP > 0 && opts.TopP < 1) {
		return d.sampleTopK(logits, opts, r)
	}

	copy(d.probs, logits)
	tensor.Scale(d.probs, float32(1/opts.Temperature))
	if !(tensor.SoftmaxRow(d.probs) > 0) {
		// NaN (a NaN logit) or 0 (nothing but −Inf): no distribution.
		r.Float64()
		return argmax(logits)
	}

	if !opts.restricted() {
		// Unrestricted: inverse-CDF walk over the full distribution.
		u := r.Float64()
		var cum float64
		for i, p := range d.probs {
			cum += float64(p)
			if u < cum {
				return i
			}
		}
		return len(d.probs) - 1 // numerical tail
	}

	// Nucleus filtering needs the cumulative mass of the full distribution:
	// rank all tokens by descending probability (ties broken by id so the
	// candidate set is deterministic), then cut by K and by nucleus mass.
	for i := range d.idx {
		d.idx[i] = i
	}
	sort.Sort((*byProb)(d))
	m := len(d.idx)
	if opts.TopK > 0 && opts.TopK < m {
		m = opts.TopK
	}
	if opts.TopP > 0 && opts.TopP < 1 {
		var cum float64
		cut := m
		for i := 0; i < m; i++ {
			cum += float64(d.probs[d.idx[i]])
			if cum >= opts.TopP {
				cut = i + 1
				break
			}
		}
		m = cut
	}

	var total float64
	for i := 0; i < m; i++ {
		total += float64(d.probs[d.idx[i]])
	}
	u := r.Float64() * total
	var cum float64
	for i := 0; i < m; i++ {
		cum += float64(d.probs[d.idx[i]])
		if u < cum {
			return d.idx[i]
		}
	}
	return d.idx[m-1] // numerical tail
}

// argmax returns the index of the largest logit, the first one on ties: the
// greedy rule of Sample at temperature 0. A NaN logit never wins; a row of
// nothing else returns 0.
func argmax(logits []float32) int {
	bi, bv := 0, logits[0]
	for i, v := range logits {
		if v > bv || (bv != bv && v == v) {
			bi, bv = i, v
		}
	}
	return bi
}

// sampleTopK draws from the k most probable tokens: a k-bounded min-heap
// scan over the raw logits selects the candidate set (identical to the
// first k of a full (prob desc, id asc) sort — ties break toward lower
// ids), then a softmax over just those k renormalizes and one variate
// picks. The candidate order is the heap's final layout — deterministic
// given the logits, which is all reproducibility needs.
func (d *Decoder) sampleTopK(logits []float32, opts DecodeOpts, r *rng.RNG) int {
	k := opts.TopK
	idx := d.idx[:k]
	for i := range idx {
		idx[i] = i
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftWorst(idx, logits, i)
	}
	for id := k; id < len(logits); id++ {
		// Keep id if it beats the worst kept candidate (the heap root) — or
		// is NaN, which no comparison would ever let in: it has to reach the
		// softmax below for the row to be refused wherever the NaN sits.
		if v := logits[id]; v != v || logitWorse(logits, idx[0], id) {
			idx[0] = id
			siftWorst(idx, logits, 0)
		}
	}

	probs := d.probs[:k]
	inv := float32(1 / opts.Temperature)
	for i, id := range idx {
		probs[i] = logits[id] * inv
	}
	if !(tensor.SoftmaxRow(probs) > 0) {
		r.Float64()
		return argmax(logits)
	}
	u := r.Float64()
	var cum float64
	for i, p := range probs {
		cum += float64(p)
		if u < cum {
			return idx[i]
		}
	}
	return idx[k-1] // numerical tail
}

// logitWorse orders token ids for top-k selection: a is worse than b when
// its logit is smaller, with ties going against the higher id (so the kept
// set matches a (prob desc, id asc) sort prefix exactly).
func logitWorse(logits []float32, a, b int) bool {
	la, lb := logits[a], logits[b]
	if la != lb {
		return la < lb
	}
	return a > b
}

// siftWorst restores the min-heap property (worst kept candidate at the
// root) below position i.
func siftWorst(idx []int, logits []float32, i int) {
	for {
		l, rt := 2*i+1, 2*i+2
		m := i
		if l < len(idx) && logitWorse(logits, idx[l], idx[m]) {
			m = l
		}
		if rt < len(idx) && logitWorse(logits, idx[rt], idx[m]) {
			m = rt
		}
		if m == i {
			return
		}
		idx[i], idx[m] = idx[m], idx[i]
		i = m
	}
}

// byProb sorts a Decoder's idx by descending probability, ascending id on
// ties.
type byProb Decoder

func (b *byProb) Len() int { return len(b.idx) }
func (b *byProb) Less(i, j int) bool {
	pi, pj := b.probs[b.idx[i]], b.probs[b.idx[j]]
	if pi != pj {
		return pi > pj
	}
	return b.idx[i] < b.idx[j]
}
func (b *byProb) Swap(i, j int) { b.idx[i], b.idx[j] = b.idx[j], b.idx[i] }
