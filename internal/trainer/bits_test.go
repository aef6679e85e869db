package trainer

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"zipflm/internal/compress"
	"zipflm/internal/core"
	"zipflm/internal/half"
	"zipflm/internal/model"
	"zipflm/internal/optim"
	"zipflm/internal/sampling"
)

// ledgerRow is one row of testdata/bits.json: SHA-256 digests, in hex, of a
// checkpoint's model file and of its optimizer state.
type ledgerRow struct {
	Model     string `json:"model"`
	Optimizer string `json:"optimizer"`
}

// optimizerDigest hashes an optimizer state field by field: kind and step
// count, then each moment pair under its name, as little-endian float32.
func optimizerDigest(st optim.State) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d\n", st.Kind, st.T)
	for i, name := range st.Names {
		fmt.Fprintf(h, "%s\n", name)
		_ = binary.Write(h, binary.LittleEndian, st.M[i])
		_ = binary.Write(h, binary.LittleEndian, st.V[i])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestBitsLedger holds the training arithmetic to the digests checked in as
// testdata/bits.json: for each row, CaptureState's model file and optimizer
// state after 6 steps on 4 ranks. A change that moves one bit of a weight or
// a moment fails here. A deliberate move edits the ledger in the same commit,
// with the digests this test prints and the reason.
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
			c.Model = model.Config{Vocab: 60, Dim: 8, Hidden: 10, RNN: model.KindRHN, RHNDepth: 2}
			c.NewOptimizer = adam
			c.Wire = half.NewScaler(512)
			c.Overlap = true
		},
		"lstm-topk": func(c *Config) {
			c.Compress = &compress.Config{Method: compress.MethodTopK, Ratio: 0.05, Momentum: 0.9, MinElems: 1}
		},
	}
	if len(ledger) != len(rows) {
		t.Errorf("ledger has %d rows, the test builds %d", len(ledger), len(rows))
	}
	train, valid := smallData(60, 8000, 21)
	for name, set := range rows {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(4, core.UniqueExchange{})
			set(&cfg)
			tr, err := New(cfg, train, valid)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Steps(6); err != nil {
				t.Fatal(err)
			}
			st, err := tr.CaptureState()
			if err != nil {
				t.Fatal(err)
			}
			got := ledgerRow{Model: fmt.Sprintf("%x", sha256.Sum256(st.ModelBytes)), Optimizer: optimizerDigest(st.Opt)}
			if want, ok := ledger[name]; !ok || got != want {
				b, _ := json.Marshal(got)
				t.Errorf("digests moved: got %q: %s, ledger has %+v", name, b, want)
			}
		})
	}
}
