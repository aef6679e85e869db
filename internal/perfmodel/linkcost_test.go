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
	if got := l.RingAllReduceSeconds(4, 1000); !almostEq(got, want) {
		t.Fatalf("RingAllReduceSeconds = %v, want %v", got, want)
	}
	if l.RingAllReduceSeconds(1, 1000) != 0 {
		t.Fatal("single rank must cost nothing")
	}
	if l.RingAllReduceSeconds(4, 0) != 0 {
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
// the online providers: StepTime must be, bit for bit, ComputeSeconds plus
// the RingLink α–β charge (none on one rank) plus the read-modify-write
// update with its serialization factor clamped to 1, plus the overhead.
func TestStepTimeMatchesLinkDecomposition(t *testing.T) {
	hw := TitanX()
	for _, g := range []int{1, 8, 16} {
		for _, ser := range []float64{0.5, 3} {
			c := StepCost{
				ComputeFLOPs: 136e9, AchievedFrac: 0.4,
				WireBytes: 1<<20 + 7, WireHops: 3 * (g - 1),
				UpdateRows: 10_240, UpdateDim: 512, UpdateSerialization: ser,
				OverheadSec: 0.2754,
			}
			comm := 0.0
			if g > 1 {
				link := hw.RingLink(g)
				comm = float64(c.WireBytes)/link.BytesPerSec + float64(c.WireHops)*link.Alpha
			}
			update := 2 * float64(c.UpdateRows) * float64(c.UpdateDim) * 4 * math.Max(ser, 1) / hw.MemBW
			want := hw.ComputeSeconds(c.ComputeFLOPs, c.AchievedFrac) + comm + update + c.OverheadSec
			if got := hw.StepTime(g, c); got != want {
				t.Errorf("g=%d ser=%v: StepTime = %v, decomposition = %v", g, ser, got, want)
			}
		}
	}
}
