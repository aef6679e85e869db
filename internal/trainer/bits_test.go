package trainer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"zipflm/internal/ckpt"
	"zipflm/internal/collective"
	"zipflm/internal/core"
	"zipflm/internal/half"
	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/perfmodel"
	"zipflm/internal/sampling"
	"zipflm/internal/telemetry"
	"zipflm/internal/tensor"
)

// ledgerRow is one row of testdata/bits.json: SHA-256 digests, in hex, of a
// checkpoint's weights, of its optimizer state, and of the run's counters.
// The weights and the moments are hashed tensor by tensor in name order, so
// the digests do not depend on how a file lays them out.
type ledgerRow struct {
	Model     string `json:"model"`
	Optimizer string `json:"optimizer"`
	Counters  string `json:"counters"`
}

// modelDigest hashes a model's weights by name: each tensor of Weights, in
// ascending name order, under its name, as little-endian float32.
func modelDigest(m *model.LM) string {
	ws := slices.Clone(m.Weights())
	slices.SortFunc(ws, func(a, b model.Param) int { return strings.Compare(a.Name, b.Name) })
	h := sha256.New()
	for _, w := range ws {
		fmt.Fprintf(h, "%s\n", w.Name)
		_ = binary.Write(h, binary.LittleEndian, w.Value)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// optimizerDigest hashes an optimizer state field by field: kind and step
// count, then, for each of m's dense tensors in ascending name order, its
// name and the stretches of M and V that belong to it, as little-endian
// float32.
func optimizerDigest(st optim.State, m *model.LM) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d\n", st.Kind, st.T)
	if len(st.M) == 0 {
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	type span struct {
		name   string
		lo, hi int
	}
	var spans []span
	for _, p := range m.DenseParams() {
		lo := 0
		if len(spans) > 0 {
			lo = spans[len(spans)-1].hi
		}
		spans = append(spans, span{p.Name, lo, lo + len(p.Value)})
	}
	slices.SortFunc(spans, func(a, b span) int { return strings.Compare(a.name, b.name) })
	for _, sp := range spans {
		fmt.Fprintf(h, "%s\n", sp.name)
		_ = binary.Write(h, binary.LittleEndian, st.M[sp.lo:sp.hi])
		_ = binary.Write(h, binary.LittleEndian, st.V[sp.lo:sp.hi])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// counters is what a run reports about itself besides its weights: each
// rank's traffic counters and its device's memory peak, the device clock
// and the lane clock (zero without Overlap and Hardware), and the
// unique-word sums of the commit loop's StepStats.
type counters struct {
	traffic      []collective.Stats
	peaks        []int64
	device, lane float64
	sums         StepStats
}

func countersOf(tr *Trainer, sums StepStats) counters {
	c := counters{device: tr.clock.Now(), lane: tr.lane.Now(), sums: sums}
	for r, dev := range tr.Cluster().Devices {
		c.traffic = append(c.traffic, tr.Comm().RankStats(r))
		c.peaks = append(c.peaks, dev.Peak())
	}
	return c
}

// moved names the counters an invariance column changes on purpose.
type moved uint8

const (
	clocksMove   moved = 1 << iota // the device and lane clocks
	trafficMoves                   // the traffic counters and the unique-word sums
)

func (m moved) String() string {
	var s []string
	if m&clocksMove != 0 {
		s = append(s, "clocks")
	}
	if m&trafficMoves != 0 {
		s = append(s, "traffic and unique-word sums")
	}
	return strings.Join(s, ", ")
}

// digest hashes c as the ledger's counters: one line per rank — its traffic
// counters, the device clock, its memory peak, the lane clock — then the
// unique-word sums. What skip names is hashed as zero.
func (c counters) digest(skip moved) string {
	device, lane, sums := math.Float64bits(c.device), math.Float64bits(c.lane), c.sums
	if skip&clocksMove != 0 {
		device, lane = 0, 0
	}
	if skip&trafficMoves != 0 {
		sums = StepStats{}
	}
	h := sha256.New()
	for r, traffic := range c.traffic {
		if skip&trafficMoves != 0 {
			traffic = collective.Stats{}
		}
		fmt.Fprintf(h, "%d %+v %x %d %x\n", r, traffic, device, c.peaks[r], lane)
	}
	fmt.Fprintf(h, "%d %d %d\n", sums.Steps, sums.InputUniqueGlobal, sums.OutputUniqueGlobal)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// cell is what one cell of the invariance table observed of its run.
type cell struct {
	model, optimizer string
	counters         counters
}

// cellOf digests tr's checkpoint and counters after the commit loop summed
// sums, and checks §II-B's invariant that every rank holds rank 0's
// weights.
func cellOf(t *testing.T, tr *Trainer, sums StepStats) cell {
	t.Helper()
	if err := tr.ReplicasInSync(); err != nil {
		t.Fatal(err)
	}
	st, err := tr.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	lm, err := st.LM()
	if err != nil {
		t.Fatal(err)
	}
	return cell{modelDigest(lm), optimizerDigest(st.Opt, lm), countersOf(tr, sums)}
}

// commitUntil commits steps on tr, through the loop Run and Steps share,
// until its global step counter reaches step, and returns what the loop
// summed.
func commitUntil(t *testing.T, tr *Trainer, step int) StepStats {
	t.Helper()
	var sums StepStats
	for tr.Step() < step {
		if _, err := tr.commitStep(&sums); err != nil {
			t.Fatal(err)
		}
	}
	return sums
}

// scrapeConcurrently renders reg's /metrics exposition from another
// goroutine every 100 µs until the returned stop is called.
func scrapeConcurrently(t *testing.T, reg *telemetry.Registry) (stop func()) {
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(done); <-stopped }
}

// wideModel's recurrent weight alone, 4·192×192 elements, is above
// tensor.ElementwiseMinWork, so its steps reach the trainer's phase-2 pool
// even when the dense gradients are reduced a tensor per call.
var wideModel = model.Config{Vocab: 60, Dim: 64, Hidden: 192, RNN: model.KindLSTM}

// TestBitsLedger holds the training arithmetic to the digests checked in as
// testdata/bits.json: for each row, CaptureState's weights and optimizer
// state after 6 steps, and the counters counters.digest covers. A change
// that moves one bit of a weight or a moment, one wire byte, one virtual
// second or one byte of device memory fails here. A deliberate move edits
// the ledger in the same commit, with the digests this test prints and the
// reason.
//
// It is also the trainer's invariance table. The base cell, procs=4, runs
// each row at GOMAXPROCS 4, and every column changes one thing that must
// not move a bit, so every cell must give the row's digests. The procs
// cells run alone, the others side by side:
//   - procs=1, procs=2: the trainer's phase-2 pool has one worker per core,
//     and the "wide" rows' dense reductions and Adam step are above
//     tensor.ElementwiseMinWork, so they run as chunk sets and stripes on two
//     or more workers;
//   - observed: telemetry, tracing and the flight recorder on, with /metrics
//     scraped from another goroutine throughout;
//   - overlap-flipped: Overlap off where the row has it on, on where off;
//   - resume: a checkpoint to disk half way, and the second half trained by
//     a fresh trainer Resume builds from it;
//   - faults, on the rows with Hardware: two rank failures, each rolled back
//     to the last checkpoint and replayed.
//
// A column that moves a counter on purpose says which (moved); the other
// counters are compared against the base cell's run instead of the ledger.
// Overlap prices the reductions on the lane clock, a resumed trainer starts
// its clocks at zero, and a replay repeats the lost steps' traffic on top of
// the clock's lost time. The resume cell adds the first leg's traffic and
// sums to the resumed trainer's, so only its clocks are left out.
func TestBitsLedger(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "bits.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ledger map[string]ledgerRow
	if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Fatal(err)
	}
	adam := func() optim.Optimizer { return optim.NewAdam(1e-5) }
	rhn := model.Config{Vocab: 60, Dim: 8, Hidden: 10, RNN: model.KindRHN, RHNDepth: 2}
	if 4*wideModel.Hidden*wideModel.Hidden < tensor.ElementwiseMinWork {
		t.Fatal("the wide rows no longer reach the phase-2 pool")
	}
	hardware := func(c *Config) {
		hw := perfmodel.TitanX()
		c.Hardware = &hw
		c.SimFLOPsPerStep = 2e9
		c.SimAchievedFrac = 0.4
	}
	rows := map[string]func(*Config){
		"lstm-sampled-sgd": func(c *Config) {
			c.Model.Sampled = 12
			c.SeedStrategy = sampling.ZipfFreq
		},
		"lstm-stateful-dropout-adam": func(c *Config) {
			c.Model.Sampled = 12
			c.Model.Stateful = true
			c.Model.Dropout = 0.25
			c.NewOptimizer = adam
		},
		"rhn-full-adam-fp16-overlap": func(c *Config) {
			c.Model = rhn
			c.NewOptimizer = adam
			c.Wire = half.NewScaler(512)
			c.Overlap = true
		},
		"lstm-sampled-baseline-hardware": func(c *Config) {
			c.Model.Sampled = 12
			c.Exchange = core.BaselineAllGather{}
			hardware(c)
		},
		"rhn-full-fp16-overlap-hardware": func(c *Config) {
			c.Model = rhn
			c.Wire = half.NewScaler(512)
			c.Overlap = true
			hardware(c)
		},
		"lstm-wide-full-adam-fp16-overlap-hardware": func(c *Config) {
			c.Model = wideModel
			c.NewOptimizer = adam
			c.Wire = half.NewScaler(512)
			c.Overlap = true
			hardware(c)
		},
		"lstm-wide-sampled-sgd": func(c *Config) {
			c.Model = wideModel
			c.Model.Sampled = 12
		},
		// One rank: every collective is degenerate.
		"lstm-g1-sampled": func(c *Config) {
			c.Ranks = 1
			c.Model.Sampled = 12
		},
		"lstm-g2-full": func(c *Config) {
			c.Ranks = 2
		},
		// Trained on a short stream (streams), whose epochs are 4 steps: the
		// run crosses a boundary after the resume column's checkpoint, so
		// the decayed learning rate and the carried state's reset both hang
		// on the restored schedule.
		"lstm-g3-sampled-clip-stateful-decay": func(c *Config) {
			c.Ranks = 3
			c.Model.Sampled = 12
			c.Model.Stateful = true
			c.ClipNorm = 0.01
			c.LRDecay = 0.9
			c.SeedStrategy = sampling.AllSame
		},
	}
	if len(ledger) != len(rows) {
		t.Errorf("ledger has %d rows, the test builds %d", len(ledger), len(rows))
	}
	// streams shortens the training stream of the rows it names; train is
	// the current row's.
	streams := map[string]int{"lstm-g3-sampled-clip-stateful-decay": 160}
	const steps = 6
	stream, valid := smallData(60, 8000, 21)
	var train []int
	fresh := func(t *testing.T, cfg Config) *Trainer {
		t.Helper()
		tr, err := New(cfg, train, valid)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	run := func(t *testing.T, cfg Config) cell {
		tr := fresh(t, cfg)
		return cellOf(t, tr, commitUntil(t, tr, steps))
	}
	plain := func(t *testing.T, cfg Config, _ cell) cell { return run(t, cfg) }
	columns := []struct {
		name string
		// procs, when set, is the GOMAXPROCS the cell runs at, alone; the
		// other cells of a row run side by side at the base cell's.
		procs    int
		moves    moved
		hardware bool // only on the rows with Hardware
		run      func(t *testing.T, cfg Config, base cell) cell
	}{
		{name: "procs=1", procs: 1, run: plain},
		{name: "procs=2", procs: 2, run: plain},
		{name: "observed", run: func(t *testing.T, cfg Config, _ cell) cell {
			reg, tracer, flight := telemetry.NewRegistry(), telemetry.NewTracer(0), telemetry.NewFlight(64)
			flight.SetSink(io.Discard)
			cfg.Telemetry, cfg.Trace, cfg.Flight = reg, tracer, flight
			// Checkpoints in memory, which move nothing, give the flight
			// recorder events to record.
			cfg.CheckpointEvery = 2
			stop := scrapeConcurrently(t, reg)
			tr := fresh(t, cfg)
			sums := commitUntil(t, tr, steps)
			stop()
			if got := reg.Duration("zipflm_train_compute_seconds").Count(); got != int64(sums.Steps) {
				t.Errorf("compute histogram has %d observations, want %d", got, sums.Steps)
			}
			if !slices.ContainsFunc(tracer.Events(), func(e telemetry.Event) bool { return e.Cat == "collective" }) {
				t.Error("communicator trace not attached: no collective spans recorded")
			}
			if flight.Recorded() == 0 {
				t.Error("the flight recorder saw no checkpoint")
			}
			return cellOf(t, tr, sums)
		}},
		{name: "overlap-flipped", moves: clocksMove, run: func(t *testing.T, cfg Config, _ cell) cell {
			cfg.Overlap = !cfg.Overlap
			return run(t, cfg)
		}},
		{name: "resume", moves: clocksMove, run: func(t *testing.T, cfg Config, _ cell) cell {
			cfg.CheckpointEvery, cfg.CheckpointDir = steps/2, t.TempDir()
			first := fresh(t, cfg)
			before := countersOf(first, commitUntil(t, first, steps/2))
			tr, err := Resume(cfg, cfg.CheckpointDir, train, valid)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Step() != steps/2 {
				t.Fatalf("resumed at step %d, want %d", tr.Step(), steps/2)
			}
			c := cellOf(t, tr, commitUntil(t, tr, steps))
			// The resumed trainer's counters start at zero: the two legs'
			// traffic and sums add up to the uninterrupted run's, and its
			// peaks are the larger leg's.
			for r := range c.counters.traffic {
				c.counters.traffic[r].Add(before.traffic[r])
				c.counters.peaks[r] = max(c.counters.peaks[r], before.peaks[r])
			}
			c.counters.sums.Steps += before.sums.Steps
			c.counters.sums.InputUniqueGlobal += before.sums.InputUniqueGlobal
			c.counters.sums.OutputUniqueGlobal += before.sums.OutputUniqueGlobal
			return c
		}},
		{name: "faults", moves: clocksMove | trafficMoves, hardware: true, run: func(t *testing.T, cfg Config, base cell) cell {
			// Checkpoint and restart costs in proportion to the base run's
			// steps, δ = end/6 virtual seconds each. Rank 1 fails at 1.2δ
			// and is found after step 2, which rolls back to step 0; the
			// replay reaches the step-3 checkpoint at 5.75δ, and rank 0's
			// failure at 6.6δ is found after step 4 or 5.
			end := base.counters.device
			cfg.CheckpointEvery = steps / 2
			cfg.SimCheckpointSeconds = end / steps / 4
			cfg.SimRestartSeconds = end / steps / 2
			cfg.Faults = ckpt.NewFaultPlan([]ckpt.Fault{{Time: end * 0.2, Rank: 1}, {Time: end * 1.1, Rank: 0}})
			tr := fresh(t, cfg)
			c := cellOf(t, tr, commitUntil(t, tr, steps))
			if fs := tr.FaultStats(); fs.Faults != 2 || fs.LostSteps == 0 {
				t.Errorf("fault stats %+v, want 2 faults that lost steps", fs)
			}
			if tr.SimSeconds() <= end {
				t.Errorf("the run with faults ends at virtual %v s, the base run at %v", tr.SimSeconds(), end)
			}
			return c
		}},
	}
	for name, set := range rows {
		train = stream
		if n, ok := streams[name]; ok {
			train = stream[:n]
		}
		t.Run(name, func(t *testing.T) {
			procs := runtime.GOMAXPROCS(4)
			t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
			cfg := smallConfig(4, core.UniqueExchange{})
			set(&cfg)
			want := ledger[name]
			var base cell
			if !t.Run("procs=4", func(t *testing.T) {
				base = run(t, cfg)
				if got := (ledgerRow{base.model, base.optimizer, base.counters.digest(0)}); got != want {
					b, _ := json.Marshal(got)
					t.Fatalf("digests moved: got %q: %s, ledger has %+v", name, b, want)
				}
			}) {
				return
			}
			if cfg.LRDecay != 0 {
				if spe := fresh(t, cfg).StepsPerEpoch(); spe <= steps/2 || spe >= steps {
					t.Fatalf("an epoch is %d steps: the run does not cross its boundary after step %d", spe, steps/2)
				}
			}
			for _, col := range columns {
				if col.hardware && cfg.Hardware == nil {
					continue
				}
				col := col // go 1.21: the parallel cells must not share it
				t.Run(col.name, func(t *testing.T) {
					if col.procs == 0 {
						t.Parallel()
					} else {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(col.procs))
					}
					got := col.run(t, cfg, base)
					if got.model != want.Model || got.optimizer != want.Optimizer {
						t.Errorf("weights or optimizer state moved: got %s %s, ledger has %s %s",
							got.model, got.optimizer, want.Model, want.Optimizer)
					}
					if col.moves == 0 {
						if c := got.counters.digest(0); c != want.Counters {
							t.Errorf("counters moved: got %s, ledger has %s", c, want.Counters)
						}
					} else if g, b := got.counters.digest(col.moves), base.counters.digest(col.moves); g != b {
						t.Errorf("counters besides the %s moved from the base cell's: got %s, base %s", col.moves, g, b)
					}
				})
			}
		})
	}
}
