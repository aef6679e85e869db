package vclock

import (
	"sync"
	"testing"
)

func TestAdvanceAndNow(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock at %v", c.Now())
	}
	if got := c.Advance(1.5); got != 1.5 {
		t.Fatalf("Advance returned %v", got)
	}
	c.Advance(0.5)
	if c.Now() != 2.0 {
		t.Fatalf("clock at %v, want 2.0", c.Now())
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative advance must panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestAdvanceToIsMax(t *testing.T) {
	var c Clock
	c.Advance(3)
	c.AdvanceTo(2) // in the past: no-op
	if c.Now() != 3 {
		t.Fatalf("AdvanceTo rewound the clock to %v", c.Now())
	}
	c.AdvanceTo(5)
	if c.Now() != 5 {
		t.Fatalf("AdvanceTo(5) left clock at %v", c.Now())
	}
}

func TestSyncAdvance(t *testing.T) {
	clocks := []*Clock{{}, {}, {}}
	clocks[0].Advance(1)
	clocks[1].Advance(4)
	SyncAdvance(clocks, 2)
	for i, c := range clocks {
		if c.Now() != 6 {
			t.Errorf("clock %d at %v, want 6 (max 4 + 2)", i, c.Now())
		}
	}
	if MaxNow(clocks) != 6 {
		t.Errorf("MaxNow = %v", MaxNow(clocks))
	}
}

// TestConcurrentAdvance exercises the mutex under the race detector: total
// time must equal the sum of all advances.
func TestConcurrentAdvance(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(0.001)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got < 7.99 || got > 8.01 {
		t.Fatalf("concurrent advances lost time: %v", got)
	}
}
