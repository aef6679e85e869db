package compress

import (
	"math"
	"sort"
	"testing"

	"zipflm/internal/half"
	"zipflm/internal/rng"
)

// randVec fills a deterministic test vector with mixed-magnitude values.
func randVec(n int, seed uint64) []float32 {
	r := rng.New(seed)
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64()) * float32(math.Pow(10, float64(r.Intn(4))-2))
	}
	return v
}

func TestSelectTopKMatchesSortPrefix(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000} {
		for _, k := range []int{1, 3, 64, 1500} {
			v := randVec(n, uint64(n*1000+k))
			// Inject magnitude ties so the tie-break is exercised.
			if n > 10 {
				v[3], v[7] = 0.5, -0.5
			}
			got := selectTopK(v, k, make([]int, 0, k))

			// Reference: (|v| desc, index asc) sort prefix.
			ref := make([]int, n)
			for i := range ref {
				ref[i] = i
			}
			sort.SliceStable(ref, func(a, b int) bool {
				ma, mb := math.Abs(float64(v[ref[a]])), math.Abs(float64(v[ref[b]]))
				if ma != mb {
					return ma > mb
				}
				return ref[a] < ref[b]
			})
			m := k
			if m > n {
				m = n
			}
			want := append([]int(nil), ref[:m]...)
			sort.Ints(want)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: selected %d, want %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d k=%d: selection %v != sort prefix %v", n, k, got, want)
				}
			}
		}
	}
}

func TestTopKPayloadRoundTrip(t *testing.T) {
	n := 500
	v := randVec(n, 3)
	idx := selectTopK(v, 50, make([]int, 0, 50))
	vals := make([]float32, len(idx))
	for j, i := range idx {
		vals[j] = v[i]
	}

	for _, scaler := range []*half.Scaler{nil, half.NewScaler(256)} {
		sent := append([]float32(nil), vals...)
		payload := EncodeTopK(nil, n, idx, sent, scaler)
		if want := TopKPayloadBytes(len(idx), scaler != nil); len(payload) != want {
			t.Fatalf("payload %d bytes, want %d", len(payload), want)
		}
		acc := make([]float32, n)
		if err := (TopKDecoder{}).DecodeAdd(acc, payload); err != nil {
			t.Fatal(err)
		}
		for j, i := range idx {
			// The decoder must add exactly the post-wire value EncodeTopK
			// reported back in sent — that equality is what makes the
			// error-feedback residual exact.
			if acc[i] != sent[j] {
				t.Fatalf("scaler=%v: decoded %v at %d, encoder reported %v", scaler, acc[i], i, sent[j])
			}
		}
		// Non-selected positions stay untouched.
		sel := make(map[int]bool, len(idx))
		for _, i := range idx {
			sel[i] = true
		}
		for i, a := range acc {
			if !sel[i] && a != 0 {
				t.Fatalf("position %d not selected but decoded to %v", i, a)
			}
		}
	}
}

// TestTopKFP16Saturates: error feedback can grow residual magnitudes past
// the FP16 range; the encoder must saturate to the finite max (like
// Scaler.RoundTrip) instead of putting Inf on the wire, which would poison
// every replica's gradient and leave -Inf in the residual carry forever.
func TestTopKFP16Saturates(t *testing.T) {
	scaler := half.NewScaler(512)
	vals := []float32{1e6, -1e6} // *512 overflows FP16 by far
	payload := EncodeTopK(nil, 4, []int{1, 3}, vals, scaler)
	wantMag := float32(half.MaxFinite) / 512
	if vals[0] != wantMag || vals[1] != -wantMag {
		t.Fatalf("encoder reported %v, want saturated ±%v", vals, wantMag)
	}
	acc := make([]float32, 4)
	if err := (TopKDecoder{}).DecodeAdd(acc, payload); err != nil {
		t.Fatal(err)
	}
	for i, v := range acc {
		if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
			t.Fatalf("Inf/NaN escaped to position %d: %v", i, acc)
		}
	}
	if acc[1] != wantMag || acc[3] != -wantMag {
		t.Fatalf("decoded %v, want saturated ±%v at 1 and 3", acc, wantMag)
	}
}

func TestTopKDecodeAddEmptyPayloadIsZero(t *testing.T) {
	acc := []float32{1, 2, 3}
	if err := (TopKDecoder{}).DecodeAdd(acc, nil); err != nil {
		t.Fatal(err)
	}
	if acc[0] != 1 || acc[1] != 2 || acc[2] != 3 {
		t.Fatalf("empty payload mutated acc: %v", acc)
	}
}

func TestTopKDecodeRejectsMalformed(t *testing.T) {
	n := 64
	v := randVec(n, 4)
	idx := selectTopK(v, 8, make([]int, 0, 8))
	vals := make([]float32, len(idx))
	for j, i := range idx {
		vals[j] = v[i]
	}
	good := EncodeTopK(nil, n, idx, vals, nil)
	acc := make([]float32, n)

	cases := map[string][]byte{
		"short header": good[:5],
		"truncated":    good[:len(good)-3],
		"padded":       append(append([]byte(nil), good...), 0),
	}
	// Wrong tensor length.
	wrongN := append([]byte(nil), good...)
	wrongN[5] = byte(n + 1)
	cases["wrong length"] = wrongN
	// Out-of-range index.
	badIdx := append([]byte(nil), good...)
	badIdx[topKHeaderBytes] = 0xff
	badIdx[topKHeaderBytes+1] = 0xff
	cases["index out of range"] = badIdx
	// Duplicate (non-ascending) indices.
	dup := EncodeTopK(nil, n, []int{5, 5}, []float32{1, 2}, nil)
	cases["non-ascending indices"] = dup

	for name, p := range cases {
		if err := (TopKDecoder{}).DecodeAdd(acc, p); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestQuant8Deterministic(t *testing.T) {
	for _, stochastic := range []bool{false, true} {
		x1 := randVec(2000, 9)
		x2 := append([]float32(nil), x1...)
		q1 := NewQuant8(256, stochastic, 42)
		q2 := NewQuant8(256, stochastic, 42)
		q1.RoundTrip(x1)
		q2.RoundTrip(x2)
		for i := range x1 {
			if x1[i] != x2[i] {
				t.Fatalf("stochastic=%v: same seed diverges at %d: %v vs %v", stochastic, i, x1[i], x2[i])
			}
		}
	}
}

func TestQuant8ErrorBounded(t *testing.T) {
	for _, stochastic := range []bool{false, true} {
		x := randVec(1024, 11)
		orig := append([]float32(nil), x...)
		q := NewQuant8(256, stochastic, 1)
		q.RoundTrip(x)
		for lo := 0; lo < len(x); lo += q.ChunkElems {
			hi := min(lo+q.ChunkElems, len(x))
			var maxAbs float64
			for _, v := range orig[lo:hi] {
				if a := math.Abs(float64(v)); a > maxAbs {
					maxAbs = a
				}
			}
			step := maxAbs / 127
			for i := lo; i < hi; i++ {
				if err := math.Abs(float64(x[i] - orig[i])); err > step*1.001 {
					t.Fatalf("stochastic=%v: element %d moved %v, quantization step is %v", stochastic, i, err, step)
				}
			}
		}
	}
}

// TestQuant8SanitizesNonFinite: an overflowed (Inf) or NaN gradient element
// must not ship on the ring — it would sum into every replica and poison
// training — so the quantizer clips it the way the FP16 wire and the top-k
// encoder do.
func TestQuant8SanitizesNonFinite(t *testing.T) {
	x := []float32{1, float32(math.Inf(1)), -2, float32(math.Inf(-1)), float32(math.NaN()), 3}
	NewQuant8(256, false, 1).RoundTrip(x)
	for i, v := range x {
		if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
			t.Fatalf("non-finite survived the wire at %d: %v", i, x)
		}
	}
	if x[1] <= 0 || x[3] >= 0 {
		t.Fatalf("Inf elements lost their sign: %v", x)
	}
	if x[4] != 0 {
		t.Fatalf("NaN quantized to %v, want 0", x[4])
	}
}

func TestQuant8ZeroChunkUntouched(t *testing.T) {
	x := make([]float32, 300)
	NewQuant8(256, true, 5).RoundTrip(x)
	for i, v := range x {
		if v != 0 {
			t.Fatalf("zero input perturbed at %d: %v", i, v)
		}
	}
}

// TestQuant8EncodeDecodeMatchesRoundTrip: RoundTrip is encodeChunk then
// decodeChunk, chunk by chunk — including the degenerate all-zero chunk
// (scale 0 decodes to zeros, which is what RoundTrip's passthrough leaves
// behind) and the non-finite elements both halves sanitize. Nearest mode
// only: stochastic rounding consumes the stream, so two passes differ.
func TestQuant8EncodeDecodeMatchesRoundTrip(t *testing.T) {
	x := randVec(1000, 13)
	for i := 512; i < 768; i++ {
		x[i] = 0
	}
	x[3] = float32(math.Inf(1))
	x[900] = float32(math.NaN())
	fused := append([]float32(nil), x...)

	q := NewQuant8(256, false, 0)
	split := make([]float32, len(x))
	codes := make([]int8, q.ChunkElems)
	for lo := 0; lo < len(x); lo += q.ChunkElems {
		hi := min(lo+q.ChunkElems, len(x))
		scale := q.encodeChunk(codes[:hi-lo], x[lo:hi])
		decodeChunk(split[lo:hi], codes[:hi-lo], scale)
		if zero := lo == 512; zero != (scale == 0) {
			t.Fatalf("chunk at %d: scale %v", lo, scale)
		}
	}

	NewQuant8(256, false, 0).RoundTrip(fused)
	for i := range fused {
		if math.Float32bits(split[i]) != math.Float32bits(fused[i]) {
			t.Fatalf("split decode differs from RoundTrip at %d: %v vs %v", i, split[i], fused[i])
		}
	}
}

func TestQuant8WireBytes(t *testing.T) {
	q := NewQuant8(256, false, 0)
	if got := q.WireBytes(256); got != 256+4 {
		t.Fatalf("one chunk: %d bytes, want %d", got, 260)
	}
	if got := q.WireBytes(257); got != 257+8 {
		t.Fatalf("two chunks: %d bytes, want %d", got, 265)
	}
	if got := q.WireBytes(0); got != 0 {
		t.Fatalf("empty: %d bytes, want 0", got)
	}
	// Strictly below FP16 (the wire it competes with) for whole chunks.
	if q.WireBytes(4096) >= 2*4096 {
		t.Fatalf("q8 %d bytes not below fp16 %d", q.WireBytes(4096), 2*4096)
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Method: MethodTopK, Ratio: 0.1}
	cc, err := good.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if cc.MinElems != DefaultMinElems || cc.ChunkElems != DefaultChunkElems {
		t.Fatalf("defaults not filled: %+v", cc)
	}
	bad := []Config{
		{Method: Method(99)},
		{Method: MethodTopK, Ratio: 0},
		{Method: MethodTopK, Ratio: 1.5},
		{Method: MethodTopK, Ratio: 0.1, EmbedRatio: 2},
		{Method: MethodTopK, Ratio: 0.1, Momentum: 1},
		{Method: MethodQuant8, Momentum: -0.1},
	}
	for _, c := range bad {
		if _, err := c.Validate(); err == nil {
			t.Errorf("config %+v validated", c)
		}
	}
}

func TestZipfTune(t *testing.T) {
	z := rng.NewZipf(rng.New(3), 500, 1.2)
	tokens := make([]int, 50_000)
	for i := range tokens {
		tokens[i] = z.Next()
	}
	cfg := Config{Method: MethodTopK, Ratio: 0.05}
	if err := cfg.ZipfTune(tokens, 500, 2048); err != nil {
		t.Fatal(err)
	}
	if cfg.EmbedRatio <= 0 || cfg.EmbedRatio > 1 {
		t.Fatalf("EmbedRatio %v outside (0, 1]", cfg.EmbedRatio)
	}
	if cfg.RankAlpha >= 0 {
		t.Fatalf("rank-frequency alpha %v, want negative (Zipf)", cfg.RankAlpha)
	}
	// A Zipfian batch touches far fewer unique words than tokens: the
	// tuned embedding ratio must sit well below the naive 2048/500 > 1.
	if cfg.EmbedRatio > 0.9 {
		t.Fatalf("EmbedRatio %v suspiciously dense for a Zipfian stream", cfg.EmbedRatio)
	}

	// Degenerate corpora leave the config untouched and error.
	for _, tok := range [][]int{nil, {7, 7, 7, 7}} {
		c := Config{Method: MethodTopK, Ratio: 0.05}
		if err := c.ZipfTune(tok, 500, 2048); err == nil {
			t.Errorf("ZipfTune(%v) fitted a degenerate corpus", tok)
		}
		if c.EmbedRatio != 0 {
			t.Errorf("degenerate tune mutated config: %+v", c)
		}
	}
}
