package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: values 0..subCount-1 land in exact unit-width
// buckets; larger values land in log-scale buckets with subCount
// sub-buckets per power of two, so every bucket's width is at most
// 1/subCount of its lower bound. Quantile estimates (bucket midpoint) are
// therefore exact below subCount and within ±1/(2·subCount) ≈ 1.6%
// relative error above it — tight enough that p50/p99/p999 read as exact
// at any plotting resolution, from fixed storage, with O(1) lock-free
// recording.
const (
	subBits  = 5
	subCount = 1 << subBits // 32 sub-buckets per octave
	// maxShift covers the full non-negative int64 range: the top bucket
	// group holds values with 63 significant bits (Len64 = 63, so the
	// largest shift bucketIndex produces is 63 - subBits - 1).
	maxShift = 63 - subBits - 1
	nBuckets = subCount * (maxShift + 2) // exact group + shifts 0..maxShift
)

// Histogram is a fixed-bucket log-scale histogram over non-negative int64
// observations (negative values clamp to 0). Recording is lock-free and
// allocation-free: one atomic add each to count, sum, and the bucket.
// A nil Histogram ignores observations.
//
// unit and factor describe how raw observations scale to the exported
// unit: duration histograms store nanoseconds with unit "s", factor 1e-9.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [nBuckets]atomic.Int64

	unit   string
	factor float64
}

// NewHistogram returns a histogram whose exported values are raw
// observations multiplied by factor, labelled with unit. factor <= 0 means
// 1 (raw values exported as-is).
func NewHistogram(unit string, factor float64) *Histogram {
	if factor <= 0 {
		factor = 1
	}
	return &Histogram{unit: unit, factor: factor}
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	shift := bits.Len64(u) - subBits - 1
	mant := u >> uint(shift) // in [subCount, 2·subCount)
	return (shift+1)*subCount + int(mant) - subCount
}

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i < subCount {
		return int64(i), int64(i) + 1
	}
	shift := i/subCount - 1
	mant := int64(subCount + i%subCount)
	lo = mant << uint(shift)
	hi = lo + (1 << uint(shift))
	if hi < lo { // the top bucket's upper bound would be 2^63
		hi = math.MaxInt64
	}
	return lo, hi
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Observe records a time.Duration (for histograms created via
// Registry.Duration).
func (h *Histogram) Observe(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the raw observation sum.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the raw mean observation (0 before any observation).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// snapshot copies the bucket counts and their total. Loads are not
// mutually atomic; under concurrent writers the snapshot is a consistent
// recent view, which is all a quantile needs.
func (h *Histogram) snapshot() (counts [nBuckets]int64, total int64) {
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	return
}

// Quantile returns the raw-valued q-quantile (0 ≤ q ≤ 1) by nearest rank
// over the bucket counts: exact for values below subCount, within
// ±1/(2·subCount) relative error above. Returns 0 before any observation.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	counts, total := h.snapshot()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range counts {
		seen += c
		if seen >= rank {
			lo, hi := bucketBounds(i)
			if i < subCount {
				return lo
			}
			return lo + (hi-lo)/2
		}
	}
	return 0 // unreachable: total > 0
}

// P50, P99 and P999 are the latency quantiles every dashboard wants.
func (h *Histogram) P50() int64  { return h.Quantile(0.50) }
func (h *Histogram) P99() int64  { return h.Quantile(0.99) }
func (h *Histogram) P999() int64 { return h.Quantile(0.999) }
