package trainer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"zipflm/internal/core"
	"zipflm/internal/half"
	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/perfmodel"
	"zipflm/internal/sampling"
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

// countersDigest hashes what a run reports about itself besides its weights:
// for each rank, its traffic counters, the device clock, its device's memory
// peak, and the lane clock (zero without Overlap and Hardware) — every rank's
// line carries the same two clocks; then the unique-word sums of sums.
func countersDigest(tr *Trainer, sums StepStats) string {
	h := sha256.New()
	c := tr.Comm()
	device, lane := math.Float64bits(tr.clock.Now()), math.Float64bits(tr.lane.Now())
	for r, dev := range tr.Cluster().Devices {
		fmt.Fprintf(h, "%d %+v %x %d %x\n", r, c.RankStats(r), device, dev.Peak(), lane)
	}
	fmt.Fprintf(h, "%d %d %d\n", sums.Steps, sums.InputUniqueGlobal, sums.OutputUniqueGlobal)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// wideModel's recurrent weight alone, 4·192×192 elements, is above
// tensor.ElementwiseMinWork, so its steps reach the trainer's phase-2 pool
// even when the dense gradients are reduced a tensor per call.
var wideModel = model.Config{Vocab: 60, Dim: 64, Hidden: 192, RNN: model.KindLSTM}

// ledgerSteps commits n steps exactly as Steps does and returns the step
// count and unique-word sums Run would put in its StepStats.
func ledgerSteps(tr *Trainer, n int) (StepStats, error) {
	var sums StepStats
	for ; sums.Steps < n; sums.Steps++ {
		tr.resetStateAtEpoch()
		st, err := tr.trainStep(tr.lrForStep())
		if err != nil {
			return sums, err
		}
		tr.step++
		if _, err := tr.afterStep(); err != nil {
			return sums, err
		}
		sums.InputUniqueGlobal += int64(st.inUnique)
		sums.OutputUniqueGlobal += int64(st.outUnique)
	}
	return sums, nil
}

// TestBitsLedger holds the training arithmetic to the digests checked in as
// testdata/bits.json: for each row, CaptureState's weights and optimizer
// state after 6 steps on 4 ranks, and the counters countersDigest covers. A
// change that moves one bit of a weight or a moment, one wire byte, one
// virtual second or one byte of device memory fails here. A deliberate move
// edits the ledger in the same commit, with the digests this test prints and
// the reason.
//
// Every row runs at GOMAXPROCS 1, 2 and 4 against the same digests: the
// trainer's phase-2 pool has one worker per core, and the "wide" rows' dense
// reductions and Adam step are above tensor.ElementwiseMinWork, so there
// they run as chunk sets and stripes on two or more workers.
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
	}
	if len(ledger) != len(rows) {
		t.Errorf("ledger has %d rows, the test builds %d", len(ledger), len(rows))
	}
	train, valid := smallData(60, 8000, 21)
	for name, set := range rows {
		for _, procs := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				cfg := smallConfig(4, core.UniqueExchange{})
				set(&cfg)
				tr, err := New(cfg, train, valid)
				if err != nil {
					t.Fatal(err)
				}
				sums, err := ledgerSteps(tr, 6)
				if err != nil {
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
				got := ledgerRow{
					Model:     modelDigest(lm),
					Optimizer: optimizerDigest(st.Opt, lm),
					Counters:  countersDigest(tr, sums),
				}
				if want, ok := ledger[name]; !ok || got != want {
					b, _ := json.Marshal(got)
					t.Errorf("digests moved: got %q: %s, ledger has %+v", name, b, want)
				}
			})
		}
	}
}
