package perfmodel

import (
	"math"
	"testing"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestHopSeconds(t *testing.T) {
	l := LinkCost{Alpha: 1e-5, BytesPerSec: 1e9}
	if got := l.HopSeconds(1e6); !almostEq(got, 1e-5+1e-3) {
		t.Fatalf("HopSeconds = %v", got)
	}
}

func TestRingAllReduceSeconds(t *testing.T) {
	l := LinkCost{Alpha: 2e-5, BytesPerSec: 8e9}
	// g=4, 1000 elems of 4 bytes: chunk = ceil(1000/4)*4 = 1000 B,
	// 6 steps.
	want := 6 * (2e-5 + 1000/8e9)
	if got := l.RingAllReduceSeconds(4, 1000, 4); !almostEq(got, want) {
		t.Fatalf("RingAllReduceSeconds = %v, want %v", got, want)
	}
	if l.RingAllReduceSeconds(1, 1000, 4) != 0 {
		t.Fatal("single rank must cost nothing")
	}
	if l.RingAllReduceSeconds(4, 0, 4) != 0 {
		t.Fatal("empty payload must cost nothing")
	}
}

func TestRingAllReduceSecondsBytes(t *testing.T) {
	l := LinkCost{Alpha: 2e-5, BytesPerSec: 8e9}
	// The element-denominated form must agree with the byte-denominated
	// one at whole elements — the equivalence the Wire-generalized cost
	// charging in internal/collective relies on.
	if a, b := l.RingAllReduceSeconds(4, 1000, 4), l.RingAllReduceSecondsBytes(4, 1000); !almostEq(a, b) {
		t.Fatalf("element form %v != byte form %v", a, b)
	}
	// A quantized chunk (1 byte/elem + scales) prices below FP16.
	q8 := l.RingAllReduceSecondsBytes(4, 250+4)
	fp16 := l.RingAllReduceSeconds(4, 1000, 2)
	if q8 >= fp16 {
		t.Fatalf("q8 chunk %v not below fp16 %v", q8, fp16)
	}
	if l.RingAllReduceSecondsBytes(1, 1000) != 0 {
		t.Fatal("single rank must cost nothing")
	}
	if l.RingAllReduceSecondsBytes(4, 0) != 0 {
		t.Fatal("empty chunk must cost nothing")
	}
}

func TestRingAllGatherSeconds(t *testing.T) {
	l := LinkCost{Alpha: 1e-5, BytesPerSec: 1e9}
	want := 3 * (1e-5 + 4096/1e9)
	if got := l.RingAllGatherSeconds(4, 4096); !almostEq(got, want) {
		t.Fatalf("RingAllGatherSeconds = %v, want %v", got, want)
	}
	if l.RingAllGatherSeconds(1, 4096) != 0 {
		t.Fatal("single rank must cost nothing")
	}
}

// TestHardwareLinks checks the profile → LinkCost projection and that
// RingLink switches fabrics exactly where RingBW does.
func TestHardwareLinks(t *testing.T) {
	hw := TitanX()
	if got := hw.RingLink(hw.GPUsPerNode); got.Alpha != hw.HopLatency || got.BytesPerSec != hw.IntraBW {
		t.Fatalf("ring within one node must use PCIe, got %+v", got)
	}
	if got := hw.RingLink(hw.GPUsPerNode + 1); got.Alpha != hw.HopLatency || got.BytesPerSec != hw.InterBW {
		t.Fatalf("ring across nodes must use InfiniBand, got %+v", got)
	}
}

func TestComputeAndMemorySeconds(t *testing.T) {
	hw := TitanX()
	if got := hw.ComputeSeconds(hw.PeakFLOPS, 1); !almostEq(got, 1) {
		t.Fatalf("peak for one second = %v", got)
	}
	if got := hw.ComputeSeconds(hw.PeakFLOPS, 0.5); !almostEq(got, 2) {
		t.Fatalf("half efficiency = %v", got)
	}
	if hw.ComputeSeconds(0, 0.5) != 0 {
		t.Fatal("zero FLOPs must cost nothing")
	}
	if got := hw.MemorySeconds(int64(hw.MemBW)); !almostEq(got, 1) {
		t.Fatalf("MemBW bytes = %v", got)
	}
	if hw.MemorySeconds(0) != 0 {
		t.Fatal("zero bytes must cost nothing")
	}
}

// TestStepTimeMatchesLinkDecomposition ties the offline aggregate model to
// the online providers: for a pure-communication StepCost, StepTime must
// equal what the per-link α–β decomposition gives.
func TestStepTimeMatchesLinkDecomposition(t *testing.T) {
	hw := TitanX()
	g := 16
	c := StepCost{WireBytes: 1 << 20, WireHops: 2 * (g - 1)}
	want := hw.RingLink(g).HopSeconds(0)*float64(c.WireHops) + float64(c.WireBytes)/hw.RingBW(g)
	if got := hw.StepTime(g, c); !almostEq(got, want) {
		t.Fatalf("StepTime = %v, link decomposition = %v", got, want)
	}
}
