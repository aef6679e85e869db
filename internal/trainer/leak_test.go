package trainer

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zipflm/internal/core"
	"zipflm/internal/half"
	"zipflm/internal/israce"
	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/perfmodel"
	"zipflm/internal/sampling"
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
// step's own goroutine, in both modes, and the phase-2 pool's helpers were
// started by New — and none of them outlives Steps, on the error paths as on
// the happy one. The cases: Steps(3) in each mode, and a wide model whose
// reductions and Adam step run on the pool — overlap priced on Hardware, and
// overlap on the FP16 wire — and a step aborted by one rank's injected exchange
// failure or by an out-of-memory exchange. Each runs with the trainer built
// at GOMAXPROCS 1, 2 and 4, so with a pool of that many workers; the count
// itself is taken at GOMAXPROCS 1 (see newGoroutineID), where the pool keeps
// its workers, and the stack diff at the trainer's own GOMAXPROCS.
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
		{"overlap-hardware", func() Config {
			cfg := smallConfig(3, core.UniqueExchange{})
			cfg.Model = wideModel
			cfg.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }
			cfg.Overlap = true
			cfg.Hardware = &hw
			cfg.SimFLOPsPerStep = 1e9
			return cfg
		}, 3, false},
		{"wide-adam-fp16-overlap", func() Config {
			cfg := smallConfig(3, core.UniqueExchange{})
			cfg.Model = wideModel
			cfg.NewOptimizer = func() optim.Optimizer { return optim.NewAdam(1e-5) }
			cfg.Wire = half.NewScaler(512)
			cfg.Overlap = true
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
	// steps runs Steps(n) on a goroutine of its own and checks its error.
	steps := func(t *testing.T, tr *Trainer, n int, wantErr bool) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- tr.Steps(n) }()
		select {
		case err := <-done:
			if (err != nil) != wantErr {
				t.Fatalf("Steps(%d) returned %v, want an error: %v", n, err, wantErr)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("Steps did not return")
		}
	}
	for _, procs := range []int{1, 2, 4} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, tc.name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
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

				runtime.GOMAXPROCS(1)
				runtime.GC()
				for i := 0; i < 20; i++ { // past the ids drawn before GOMAXPROCS was 1
					newGoroutineID()
				}
				first := newGoroutineID()
				steps(t, tr, tc.steps, tc.wantErr)
				// Less the probe itself and the goroutine running Steps.
				if started, want := newGoroutineID()-first-2, int64(tc.steps*cfg.Ranks); started != want {
					t.Errorf("Steps(%d) started %d goroutines, want %d: phase 1's %d per step", tc.steps, started, want, cfg.Ranks)
				}

				runtime.GOMAXPROCS(procs)
				before := goroutines()
				steps(t, tr, tc.steps, tc.wantErr)
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
}

// TestStepAllocBound pins what one committed step allocates on the two
// benchmark recipes at G = 4 — the word LM (LSTM, sampled softmax, SGD, FP32
// wire) and the char LM (RHN, full softmax, Adam, FP16 wire, overlap) —
// and on each again priced on the Titan X's virtual clock, at the counts
// below, which a change may only lower. What is left is phase 1's
// fan-out, the word LM's per-step samplers and the exchange engines'
// per-call slices; the batches, trainStep's per-rank scratch, the
// collectives and the phase-2 pool allocate nothing. Filling per-rank batch
// buffers instead of making 2 + 2·SeqLen slices per rank took these from 267
// and 115; keeping trainStep's results and gradient lists on the Trainer
// took them from 97 and 42, and dropping the exchanges' per-rank clock
// readings took the word LM's from 95. With the virtual clock priced on
// per-rank clocks the two rows with Hardware measured 98 and 43.
func TestStepAllocBound(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation guards are not meaningful under -race")
	}
	word := Config{
		Model: model.Config{Vocab: 10000, Dim: 64, Hidden: 128, RNN: model.KindLSTM, Sampled: 128},
		Ranks: 4, BatchPerRank: 4, SeqLen: 20, LR: 0.3, SeedStrategy: sampling.ZipfFreq, BaseSeed: 7,
	}
	char := Config{
		Model: model.Config{Vocab: 98, Dim: 32, Hidden: 256, RNN: model.KindRHN, RHNDepth: 3},
		Ranks: 4, BatchPerRank: 1, SeqLen: 8, LR: 0.01, BaseSeed: 7,
		NewOptimizer: func() optim.Optimizer { return optim.NewAdam(1e-5) },
		Wire:         half.NewScaler(256), Overlap: true,
	}
	// Pricing a recipe on the virtual clock allocates nothing per step.
	titanX := perfmodel.TitanX()
	withHardware := func(cfg Config) Config {
		cfg.Hardware, cfg.SimFLOPsPerStep = &titanX, 1e9
		return cfg
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		bound float64
	}{
		{"word", word, 94},
		{"char", char, 40},
		{"word+hw", withHardware(word), 94},
		{"char+hw", withHardware(char), 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			train, valid := smallData(tc.cfg.Model.Vocab, 20000, 3)
			tr, err := New(tc.cfg, train, valid)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Steps(3); err != nil { // warm the workspaces
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := tr.Steps(1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.bound {
				t.Errorf("Steps(1) allocates %.0f objects, want ≤ %.0f", allocs, tc.bound)
			}
		})
	}
}
