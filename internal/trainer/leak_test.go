package trainer

import (
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zipflm/internal/compress"
	"zipflm/internal/core"
	"zipflm/internal/perfmodel"
)

// goroutines returns the stacks of every live goroutine but the caller,
// keyed by their "goroutine N [" header.
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	out := map[string]string{}
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue
		}
		id, _, _ := strings.Cut(g, "[")
		out[id] = g
	}
	return out
}

// newGoroutineID starts a goroutine and returns its id. With one P the
// runtime hands ids out consecutively — once the P has drawn a fresh batch
// of them, and once a collection has started the one mark worker it needs —
// so the difference between two calls, less one, counts the goroutines
// started in between.
func newGoroutineID() int64 {
	ch := make(chan int64)
	go func() {
		buf := make([]byte, 64)
		fields := strings.Fields(string(buf[:runtime.Stack(buf, false)]))
		id, _ := strconv.ParseInt(fields[1], 10, 64)
		ch <- id
	}()
	return <-ch
}

// TestStepsLeaveNoGoroutine: a step starts the G goroutines of its
// forward/backward phase and no other — the synchronization runs on the
// step's own goroutine, in both modes — and none of them outlives Steps,
// on the error paths as on the happy one. The cases: Steps(3) in each mode,
// overlap priced on Hardware and compressed, and a step aborted by one
// rank's injected exchange failure or by an out-of-memory exchange.
func TestStepsLeaveNoGoroutine(t *testing.T) {
	train, valid := smallData(60, 8000, 6)
	armed := new(atomic.Bool)
	hw := perfmodel.TitanX()
	cases := []struct {
		name    string
		cfg     func() Config
		steps   int
		wantErr bool
	}{
		{"sync", func() Config { return smallConfig(3, core.UniqueExchange{}) }, 3, false},
		{"overlap", func() Config {
			cfg := smallConfig(3, core.UniqueExchange{})
			cfg.Overlap = true
			return cfg
		}, 3, false},
		{"overlap-hardware-compress", func() Config {
			cfg := compressConfig(3, compress.MethodTopK, 0.05, 0.9, false, nil)
			cfg.Overlap = true
			cfg.Hardware = &hw
			cfg.SimFLOPsPerStep = 1e9
			return cfg
		}, 3, false},
		{"exchange-failure-on-rank-1", func() Config {
			return smallConfig(3, failOnRank{core.UniqueExchange{}, 1, armed})
		}, 1, true},
		{"exchange-failure-on-rank-1-overlap", func() Config {
			cfg := smallConfig(3, failOnRank{core.UniqueExchange{}, 1, armed})
			cfg.Overlap = true
			return cfg
		}, 1, true},
		{"oom", func() Config {
			cfg := smallConfig(3, core.BaselineAllGather{})
			cfg.Model.Sampled = 10
			cfg.DeviceCapacity = 600 // below the baseline's Θ(G·K·D) scratch
			return cfg
		}, 1, true},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			armed.Store(false)
			cfg := tc.cfg()
			tr, err := New(cfg, train, valid)
			if err != nil {
				t.Fatal(err)
			}
			if !tc.wantErr {
				if err := tr.Steps(1); err != nil { // warm up
					t.Fatal(err)
				}
			}
			armed.Store(true)
			runtime.GC()
			for i := 0; i < 20; i++ { // past the ids drawn before GOMAXPROCS was 1
				newGoroutineID()
			}
			before := goroutines()
			first := newGoroutineID()
			done := make(chan error, 1)
			go func() { done <- tr.Steps(tc.steps) }()
			select {
			case err := <-done:
				if (err != nil) != tc.wantErr {
					t.Fatalf("Steps(%d) returned %v, want an error: %v", tc.steps, err, tc.wantErr)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Steps did not return")
			}
			// Less the probe itself and the goroutine running Steps.
			if started, want := newGoroutineID()-first-2, int64(tc.steps*cfg.Ranks); started != want {
				t.Errorf("Steps(%d) started %d goroutines, want %d: phase 1's %d per step", tc.steps, started, want, cfg.Ranks)
			}

			// A joined goroutine may still be on its way out of the runtime
			// just after its WaitGroup released the step.
			var left []string
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				left = left[:0]
				for id, g := range goroutines() {
					if _, ok := before[id]; !ok {
						left = append(left, g)
					}
				}
				if len(left) == 0 || time.Now().After(deadline) {
					break
				}
			}
			if len(left) > 0 {
				t.Fatalf("%d goroutines outlived Steps:\n%s", len(left), strings.Join(left, "\n\n"))
			}
		})
	}
}
