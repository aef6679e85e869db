package telemetry

import (
	"math"
	"sort"
	"sync"
	"testing"
)

// oracleQuantile is the sorted-slice nearest-rank reference, using the
// same rank rule Histogram.Quantile applies, so the two disagree only by
// bucket resolution, never by rank convention.
func oracleQuantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	rank := int(q*float64(n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// xorshift is a tiny deterministic generator so the adversarial
// distributions reproduce bit-identically.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// quantileDistributions are the adversarial shapes: a point mass (every
// observation identical — quantiles must be exact), a far-separated
// bimodal mix (quantiles jump across empty octaves), a Zipf-like power
// law (the repository's home turf: heavy head, long tail), and small
// exact-range values (sub-bucket region must be exact).
func quantileDistributions() map[string][]int64 {
	out := make(map[string][]int64)

	point := make([]int64, 5000)
	for i := range point {
		point[i] = 1_234_567
	}
	out["point-mass"] = point

	var r xorshift = 99
	bimodal := make([]int64, 6000)
	for i := range bimodal {
		if r.next()%10 < 7 {
			bimodal[i] = 1_000 + int64(r.next()%64)
		} else {
			bimodal[i] = 50_000_000 + int64(r.next()%4096)
		}
	}
	out["bimodal"] = bimodal

	r = 7
	zipf := make([]int64, 8000)
	for i := range zipf {
		// v ∝ 1/u: a crude but genuinely heavy-tailed power law spanning
		// six orders of magnitude.
		u := float64(r.next()%1_000_000)/1_000_000 + 1e-6
		zipf[i] = int64(100 / u)
	}
	out["zipf"] = zipf

	r = 3
	small := make([]int64, 4000)
	for i := range small {
		small[i] = int64(r.next() % subCount)
	}
	out["small-exact"] = small

	return out
}

func TestQuantileErrorBounds(t *testing.T) {
	qs := []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 1}
	for name, values := range quantileDistributions() {
		h := NewHistogram(1)
		for _, v := range values {
			h.Record(v)
		}
		sorted := append([]int64(nil), values...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

		for _, q := range qs {
			want := oracleQuantile(sorted, q)
			got := h.Quantile(q)
			// The bucket-midpoint guarantee: exact below subCount, else
			// within half a bucket width — ≤ 1/(2·subCount) relative.
			if want < subCount {
				if got != want {
					t.Errorf("%s q=%g: got %d, oracle %d (sub-bucket region must be exact)", name, q, got, want)
				}
				continue
			}
			relErr := math.Abs(float64(got)-float64(want)) / float64(want)
			if relErr > 1.0/subCount {
				t.Errorf("%s q=%g: got %d, oracle %d, relative error %.4f > %.4f",
					name, q, got, want, relErr, 1.0/subCount)
			}
		}
	}
}

func TestHistogramCountSum(t *testing.T) {
	h := NewHistogram(1)
	var sum int64
	for v := int64(0); v < 1000; v++ {
		h.Record(v)
		sum += v
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d, want 1000", h.Count())
	}
	if h.Sum() != sum {
		t.Fatalf("sum %d, want %d", h.Sum(), sum)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	h := NewHistogram(1)
	if h.Quantile(0.5) != 0 || h.P99() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(-50) // clamps to 0
	if h.Quantile(0.5) != 0 {
		t.Fatalf("negative observation should clamp to bucket 0, p50 = %d", h.Quantile(0.5))
	}
	if h.Count() != 1 {
		t.Fatalf("count %d, want 1", h.Count())
	}
}

func TestBucketIndexBoundsRoundTrip(t *testing.T) {
	// Every representative value must map back into its own bucket, and
	// bucket bounds must tile the axis without gaps.
	for i := 0; i < nBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo < 0 || hi <= lo {
			t.Fatalf("bucket %d: degenerate bounds [%d, %d)", i, lo, hi)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucket %d: lower bound %d maps to bucket %d", i, lo, got)
		}
		if hi-1 >= 0 {
			if got := bucketIndex(hi - 1); got != i {
				t.Fatalf("bucket %d: last value %d maps to bucket %d", i, hi-1, got)
			}
		}
		if i > 0 {
			_, prevHi := bucketBounds(i - 1)
			if prevHi != lo {
				t.Fatalf("gap between bucket %d (hi %d) and %d (lo %d)", i-1, prevHi, i, lo)
			}
		}
	}
	// The extremes must not panic or escape the array.
	if got := bucketIndex(math.MaxInt64); got >= nBuckets {
		t.Fatalf("MaxInt64 maps to bucket %d, beyond %d", got, nBuckets)
	}
}

// TestHistogramConcurrentWriters hammers one histogram from many
// goroutines; totals must balance exactly. Runs in the -race matrix.
func TestHistogramConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 10_000
	h := NewHistogram(1)
	var wg sync.WaitGroup
	for wtr := 0; wtr < writers; wtr++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := xorshift(seed + 1)
			for i := 0; i < perWriter; i++ {
				h.Record(int64(r.next() % 1_000_000))
			}
		}(uint64(wtr))
	}
	wg.Wait()
	if h.Count() != writers*perWriter {
		t.Fatalf("count %d, want %d", h.Count(), writers*perWriter)
	}
	counts, total := h.snapshot()
	if total != writers*perWriter {
		t.Fatalf("bucket total %d, want %d", total, writers*perWriter)
	}
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != total {
		t.Fatalf("bucket sum %d != total %d", sum, total)
	}
}
