package cluster

import (
	"errors"
	"sync"
	"testing"

	"zipflm/internal/perfmodel"
)

func TestAllocFreePeak(t *testing.T) {
	d := NewDevice(0, 1000)
	if err := d.Alloc(400); err != nil {
		t.Fatal(err)
	}
	if err := d.Alloc(500); err != nil {
		t.Fatal(err)
	}
	if d.Live() != 900 || d.Peak() != 900 {
		t.Fatalf("live=%d peak=%d, want 900/900", d.Live(), d.Peak())
	}
	d.Free(500)
	if d.Live() != 400 || d.Peak() != 900 {
		t.Fatalf("after free: live=%d peak=%d, want 400/900", d.Live(), d.Peak())
	}
}

func TestOOM(t *testing.T) {
	d := NewDevice(3, 100)
	if err := d.Alloc(100); err != nil {
		t.Fatal(err)
	}
	err := d.Alloc(1)
	var oom *ErrOutOfMemory
	if !errors.As(err, &oom) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	if oom.Device != 3 || oom.Want != 1 || oom.Live != 100 || oom.Capacity != 100 {
		t.Errorf("OOM fields: %+v", oom)
	}
	if oom.Error() == "" {
		t.Error("empty error string")
	}
	// Failed alloc must not change accounting.
	if d.Live() != 100 {
		t.Errorf("failed alloc changed live to %d", d.Live())
	}
}

func TestUnlimitedCapacity(t *testing.T) {
	d := NewDevice(0, 0)
	if err := d.Alloc(1 << 50); err != nil {
		t.Fatalf("unlimited device refused allocation: %v", err)
	}
}

func TestFreeUnderflowPanics(t *testing.T) {
	d := NewDevice(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("over-free did not panic")
		}
	}()
	d.Free(1)
}

func TestNegativePanics(t *testing.T) {
	d := NewDevice(0, 0)
	for _, f := range []func(){
		func() { d.Alloc(-1) },
		func() { d.Free(-1) },
		func() { New(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestClusterRunAllRanks(t *testing.T) {
	c := New(8, 0)
	var mu sync.Mutex
	seen := make(map[int]int)
	err := c.Run(func(rank int, dev *Device) error {
		mu.Lock()
		seen[rank] = dev.ID
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 8 {
		t.Fatalf("ran %d ranks, want 8", len(seen))
	}
	for rank, id := range seen {
		if id != rank {
			t.Errorf("rank %d ran on device %d", rank, id)
		}
	}
}

func TestClusterRunErrorPropagates(t *testing.T) {
	c := New(4, 0)
	sentinel := errors.New("boom")
	err := c.Run(func(rank int, dev *Device) error {
		if rank == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
}

func TestMaxPeak(t *testing.T) {
	c := New(3, 0)
	_ = c.Devices[0].Alloc(10)
	_ = c.Devices[1].Alloc(500)
	_ = c.Devices[2].Alloc(300)
	if got := c.MaxPeak(); got != 500 {
		t.Errorf("MaxPeak = %d, want 500", got)
	}
}

// TestTitanXProfile: the default device profile is perfmodel.TitanX, and a
// cluster built from it carries Table II's memory budget.
func TestTitanXProfile(t *testing.T) {
	hw := perfmodel.TitanX()
	if hw.MemBytes != 12<<30 {
		t.Error("Titan X memory must be 12 GB (Table II)")
	}
	if hw.PeakFLOPS != 6.1e12 {
		t.Error("Titan X peak must be 6.1 TFLOP/s (Table II)")
	}
	if d := New(1, hw.MemBytes).Devices[0]; d.Alloc(hw.MemBytes) != nil || d.Alloc(1) == nil {
		t.Error("a Titan X device must hold exactly 12 GB")
	}
}

func TestDeviceClock(t *testing.T) {
	hw := perfmodel.TitanX()
	c := New(2, 0)
	if c.MaxClock() != 0 {
		t.Fatalf("fresh cluster clock at %v", c.MaxClock())
	}
	// 6.1e12 FLOPs at half efficiency: 2 simulated seconds, on device 0
	// alone.
	c.Devices[0].AdvanceCompute(int64(hw.PeakFLOPS), hw, 0.5)
	if got := c.Devices[0].Clock.Now(); got < 1.999 || got > 2.001 {
		t.Errorf("compute advanced clock to %v, want 2", got)
	}
	if got := c.Devices[1].Clock.Now(); got != 0 {
		t.Errorf("compute on device 0 moved device 1's clock to %v", got)
	}
	// MemBW bytes: one simulated second on device 1.
	c.Devices[1].AdvanceMemory(int64(hw.MemBW), hw)
	if got := c.Devices[1].Clock.Now(); got < 0.999 || got > 1.001 {
		t.Errorf("memory advanced clock to %v, want 1", got)
	}
	if got := c.MaxClock(); got < 1.999 || got > 2.001 {
		t.Errorf("MaxClock = %v, want 2", got)
	}
	if len(c.Clocks()) != 2 || c.Clocks()[0] != c.Devices[0].Clock {
		t.Error("Clocks() must expose the devices' clocks in rank order")
	}
}
