package perfmodel

// This file is the online half of the package: where perfmodel.go distills a
// finished run's aggregate byte/FLOP counts into epoch hours, the types here
// hand the *live* simulator per-operation costs. A Hardware profile exposes
// its ring link as a LinkCost value (an α–β pair); the collective layer
// charges every ring hop and gather through it as the operations
// execute, and the cluster layer charges compute and memory traffic, so a
// run's virtual clocks accumulate predicted wall-clock online.

// LinkCost is the α–β cost of one interconnect link: a message of b bytes
// occupies the link for Alpha + b/BytesPerSec seconds. It is the per-link
// unit the collective layer's CostModel charges hops with.
type LinkCost struct {
	// Alpha is the per-message latency in seconds.
	Alpha float64
	// BytesPerSec is the sustained link bandwidth.
	BytesPerSec float64
}

// HopSeconds returns the time one message of b bytes spends on the link.
func (l LinkCost) HopSeconds(b int64) float64 {
	return l.Alpha + float64(b)/l.BytesPerSec
}

// RingAllReduceSeconds returns the duration of a ring all-reduce over g
// ranks of a payload of elems elements at elemBytes each: 2(g−1) steps, each
// bounded by the largest chunk in flight (⌈elems/g⌉ elements).
func (l LinkCost) RingAllReduceSeconds(g, elems, elemBytes int) float64 {
	if elems <= 0 {
		return 0
	}
	return l.RingAllReduceSecondsBytes(g, int64((elems+g-1)/g)*int64(elemBytes))
}

// RingAllReduceSecondsBytes is the byte-denominated form of
// RingAllReduceSeconds for wire formats whose footprint is not a whole
// number of bytes per element (8-bit quantization carries per-chunk scales):
// 2(g−1) steps of one chunkBytes message each.
func (l LinkCost) RingAllReduceSecondsBytes(g int, chunkBytes int64) float64 {
	if g <= 1 || chunkBytes <= 0 {
		return 0
	}
	return float64(2*(g-1)) * l.HopSeconds(chunkBytes)
}

// RingAllGatherSeconds returns the duration of a ring all-gather over g
// ranks where the largest per-rank contribution is maxLocalBytes: g−1 steps,
// each forwarding one rank's payload.
func (l LinkCost) RingAllGatherSeconds(g int, maxLocalBytes int64) float64 {
	if g <= 1 {
		return 0
	}
	return float64(g-1) * l.HopSeconds(maxLocalBytes)
}

// RingLink returns the cost of the bottleneck link of a flat ring over g
// ranks: PCIe while the ring stays inside one node, the InfiniBand node
// boundary once it spans nodes (the LinkCost analogue of RingBW).
func (h Hardware) RingLink(g int) LinkCost {
	return LinkCost{Alpha: h.HopLatency, BytesPerSec: h.RingBW(g)}
}

// ComputeSeconds returns the time flops floating-point operations take at
// the given achieved fraction of peak (frac ≤ 0 means peak).
func (h Hardware) ComputeSeconds(flops, frac float64) float64 {
	if flops <= 0 {
		return 0
	}
	if frac <= 0 {
		frac = 1
	}
	return flops / (h.PeakFLOPS * frac)
}

// MemorySeconds returns the time b bytes of device-memory traffic take at
// the profile's effective memory bandwidth.
func (h Hardware) MemorySeconds(b int64) float64 {
	if b <= 0 {
		return 0
	}
	return float64(b) / h.MemBW
}
