package core

import (
	"errors"
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"zipflm/internal/cluster"
	"zipflm/internal/collective"
	"zipflm/internal/half"
	"zipflm/internal/rng"
	"zipflm/internal/tensor"
)

// makeGrads builds one Zipf-distributed sparse gradient per rank.
func makeGrads(g, k, d, vocab int, seed uint64) []SparseGrad {
	grads := make([]SparseGrad, g)
	root := rng.New(seed)
	for r := 0; r < g; r++ {
		rr := root.Fork()
		z := rng.NewZipf(rr, vocab, 1.1)
		idx := make([]int, k)
		for i := range idx {
			idx[i] = z.Next()
		}
		rows := tensor.NewMatrix(k, d)
		rows.RandomizeNormal(rr, 1)
		grads[r] = SparseGrad{Indices: idx, Rows: rows}
	}
	return grads
}

// runExchange executes ex on all ranks concurrently and returns per-rank
// results.
func runExchange(t *testing.T, ex Exchanger, grads []SparseGrad, wire collective.Wire, devs []*cluster.Device) ([]Update, []Stats) {
	t.Helper()
	g := len(grads)
	comm := collective.New(g)
	updates := make([]Update, g)
	stats := make([]Stats, g)
	errs := make([]error, g)
	var wg sync.WaitGroup
	for r := 0; r < g; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var dev *cluster.Device
			if devs != nil {
				dev = devs[rank]
			}
			ctx := &Ctx{Rank: rank, Comm: comm, Dev: dev, Wire: wire}
			updates[rank], stats[rank], errs[rank] = ex.Exchange(ctx, grads[rank])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return updates, stats
}

// referenceUpdate computes the ground-truth global accumulation serially.
func referenceUpdate(grads []SparseGrad) map[int][]float64 {
	d := grads[0].Rows.Cols
	acc := make(map[int][]float64)
	for _, g := range grads {
		for i, w := range g.Indices {
			row := acc[w]
			if row == nil {
				row = make([]float64, d)
				acc[w] = row
			}
			for c, v := range g.Rows.Row(i) {
				row[c] += float64(v)
			}
		}
	}
	return acc
}

func checkAgainstReference(t *testing.T, name string, upd Update, ref map[int][]float64, tol float64) {
	t.Helper()
	if len(upd.Indices) != len(ref) {
		t.Fatalf("%s: %d unique indices, want %d", name, len(upd.Indices), len(ref))
	}
	if !sort.IntsAreSorted(upd.Indices) {
		t.Fatalf("%s: indices not sorted", name)
	}
	for i, w := range upd.Indices {
		want, ok := ref[w]
		if !ok {
			t.Fatalf("%s: unexpected index %d", name, w)
		}
		for c, v := range upd.Rows.Row(i) {
			if math.Abs(float64(v)-want[c]) > tol {
				t.Fatalf("%s: word %d col %d: got %v, want %v", name, w, c, v, want[c])
			}
		}
	}
}

func TestBaselineMatchesReference(t *testing.T) {
	grads := makeGrads(4, 50, 8, 100, 1)
	updates, stats := runExchange(t, BaselineAllGather{}, grads, nil, nil)
	ref := referenceUpdate(grads)
	for r, u := range updates {
		checkAgainstReference(t, "baseline", u, ref, 1e-4)
		if stats[r].Tokens != 50 {
			t.Errorf("rank %d tokens = %d", r, stats[r].Tokens)
		}
	}
}

func TestUniqueMatchesReference(t *testing.T) {
	grads := makeGrads(4, 50, 8, 100, 2)
	updates, _ := runExchange(t, UniqueExchange{}, grads, nil, nil)
	ref := referenceUpdate(grads)
	for _, u := range updates {
		checkAgainstReference(t, "unique", u, ref, 1e-3)
	}
}

// TestEngineEquivalence is the paper's core correctness claim (§V-A: "the
// uniqueness technique only changes the flow of computation … and hence
// produces the same accuracy as the baseline"): both engines yield the same
// global update, up to float reassociation.
func TestEngineEquivalence(t *testing.T) {
	for _, g := range []int{1, 2, 3, 8} {
		grads := makeGrads(g, 40, 6, 64, uint64(g))
		base, _ := runExchange(t, BaselineAllGather{}, grads, nil, nil)
		uniq, _ := runExchange(t, UniqueExchange{}, grads, nil, nil)
		if len(base[0].Indices) != len(uniq[0].Indices) {
			t.Fatalf("g=%d: index sets differ in size", g)
		}
		for i := range base[0].Indices {
			if base[0].Indices[i] != uniq[0].Indices[i] {
				t.Fatalf("g=%d: index %d differs", g, i)
			}
			for c := 0; c < 6; c++ {
				a, b := base[0].Rows.At(i, c), uniq[0].Rows.At(i, c)
				if math.Abs(float64(a-b)) > 1e-3 {
					t.Fatalf("g=%d: row %d col %d: baseline %v vs unique %v", g, i, c, a, b)
				}
			}
		}
	}
}

// TestEngineEquivalenceProperty drives the same claim through testing/quick
// with arbitrary small shapes.
func TestEngineEquivalenceProperty(t *testing.T) {
	f := func(gRaw, kRaw, dRaw, vRaw, seed uint16) bool {
		g := int(gRaw)%4 + 1
		k := int(kRaw)%20 + 1
		d := int(dRaw)%6 + 1
		vocab := int(vRaw)%30 + 2
		grads := makeGrads(g, k, d, vocab, uint64(seed))
		ref := referenceUpdate(grads)

		comm := collective.New(g)
		updates := make([]Update, g)
		var wg sync.WaitGroup
		for r := 0; r < g; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ctx := &Ctx{Rank: rank, Comm: comm}
				updates[rank], _, _ = UniqueExchange{}.Exchange(ctx, grads[rank])
			}(r)
		}
		wg.Wait()

		u := updates[0]
		if len(u.Indices) != len(ref) {
			return false
		}
		for i, w := range u.Indices {
			want := ref[w]
			for c, v := range u.Rows.Row(i) {
				if math.Abs(float64(v)-want[c]) > 1e-3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestUpdateApply(t *testing.T) {
	emb := tensor.NewMatrix(10, 2)
	emb.Fill(1)
	u := Update{
		Indices: []int{2, 7},
		Rows:    tensor.NewMatrixFrom(2, 2, []float32{1, 2, 3, 4}),
	}
	u.Apply(emb, -0.5)
	if emb.At(2, 0) != 0.5 || emb.At(2, 1) != 0 {
		t.Errorf("row 2 = (%v,%v)", emb.At(2, 0), emb.At(2, 1))
	}
	if emb.At(7, 0) != -0.5 || emb.At(7, 1) != -1 {
		t.Errorf("row 7 = (%v,%v)", emb.At(7, 0), emb.At(7, 1))
	}
	if emb.At(0, 0) != 1 {
		t.Error("untouched row changed")
	}
}

// TestUniqueWireVolumeBelowBaseline verifies the headline asymptotic win on
// a Zipf-heavy workload.
func TestUniqueWireVolumeBelowBaseline(t *testing.T) {
	grads := makeGrads(8, 100, 16, 50, 3) // small vocab → heavy duplication
	_, bStats := runExchange(t, BaselineAllGather{}, grads, nil, nil)
	_, uStats := runExchange(t, UniqueExchange{}, grads, nil, nil)
	if uStats[0].WireBytes*2 > bStats[0].WireBytes {
		t.Errorf("unique wire %d not well below baseline %d", uStats[0].WireBytes, bStats[0].WireBytes)
	}
	if uStats[0].ScratchBytes*2 > bStats[0].ScratchBytes {
		t.Errorf("unique scratch %d not well below baseline %d", uStats[0].ScratchBytes, bStats[0].ScratchBytes)
	}
	if uStats[0].UniqueGlobal != bStats[0].UniqueGlobal {
		t.Errorf("engines disagree on U_g: %d vs %d", uStats[0].UniqueGlobal, bStats[0].UniqueGlobal)
	}
	if uStats[0].UniqueGlobal > 50 {
		t.Errorf("U_g %d exceeds vocabulary", uStats[0].UniqueGlobal)
	}
}

// TestMeasuredCostMatchesFormula validates the closed-form cost model
// against measured numbers — the license for using formulas at paper scale.
func TestMeasuredCostMatchesFormula(t *testing.T) {
	const g, k, d, vocab = 4, 64, 8, 40
	grads := makeGrads(g, k, d, vocab, 9)

	_, bStats := runExchange(t, BaselineAllGather{}, grads, nil, nil)
	bCost := BaselineCost(g, k, d, false)
	if bStats[0].WireBytes != bCost.WireBytes {
		t.Errorf("baseline wire: measured %d, formula %d", bStats[0].WireBytes, bCost.WireBytes)
	}
	if bStats[0].ScratchBytes != bCost.ScratchBytes {
		t.Errorf("baseline scratch: measured %d, formula %d", bStats[0].ScratchBytes, bCost.ScratchBytes)
	}

	_, uStats := runExchange(t, UniqueExchange{}, grads, nil, nil)
	ui, ug := uStats[0].UniqueLocal, uStats[0].UniqueGlobal
	uCost := UniqueCost(g, k, ui, ug, d, false)
	// Ring chunking rounds to ±(g−1) elements per phase when U_g·D is not
	// divisible by G.
	slack := int64(2 * (g - 1) * 4)
	if diff := uStats[0].WireBytes - uCost.WireBytes; diff < -slack || diff > slack {
		t.Errorf("unique wire: measured %d, formula %d", uStats[0].WireBytes, uCost.WireBytes)
	}
	if uStats[0].ScratchBytes != uCost.ScratchBytes {
		t.Errorf("unique scratch: measured %d, formula %d", uStats[0].ScratchBytes, uCost.ScratchBytes)
	}
}

// TestPaperMemoryExample reproduces the §III-A worked example: 256 GPUs,
// K=19,200 tokens, D=1792 — baseline ALLGATHER needs 35.2 GB while the
// uniqueness scheme needs ~0.137 GB.
func TestPaperMemoryExample(t *testing.T) {
	const g, k, d = 256, 19200, 1792
	b := BaselineCost(g, k, d, false)
	gb := float64(b.ScratchBytes) / 1e9
	if math.Abs(gb-35.2) > 0.5 {
		t.Errorf("baseline scratch = %.2f GB, paper says 35.2 GB", gb)
	}
	ug := ExpectedUnique(g*k, 0.64, 1.0, 1<<40)
	// The paper's 0.137 GB figure counts the U_g×D ALLREDUCE buffer.
	mGB := float64(int64(ug)*d*4) / 1e9
	if math.Abs(mGB-0.137) > 0.02 {
		t.Errorf("unique M buffer = %.3f GB, paper says 0.137 GB (U_g=%d)", mGB, ug)
	}
}

func TestFP16WireHalvesGradVolume(t *testing.T) {
	grads := makeGrads(4, 64, 16, 1000, 4) // large vocab → low duplication
	_, fp32 := runExchange(t, UniqueExchange{}, grads, nil, nil)
	_, fp16 := runExchange(t, UniqueExchange{}, grads, half.NewScaler(512), nil)
	// Index traffic is uncompressed; gradient traffic halves.
	idxBytes := int64(3 * 64 * 4) // (G−1)·K·4
	grad32 := fp32[0].WireBytes - idxBytes
	grad16 := fp16[0].WireBytes - idxBytes
	ratio := float64(grad16) / float64(grad32)
	if math.Abs(ratio-0.5) > 0.01 {
		t.Errorf("FP16 gradient wire ratio = %v, want 0.5", ratio)
	}
}

func TestFP16AccuracyClose(t *testing.T) {
	grads := makeGrads(4, 30, 8, 60, 5)
	ref := referenceUpdate(grads)
	updates, _ := runExchange(t, UniqueExchange{}, grads, half.NewScaler(512), nil)
	// Tolerance reflects FP16 rounding at ~1e-2 relative for |sum| up to ~10.
	checkAgainstReference(t, "unique-fp16", updates[0], ref, 0.15)
}

// TestBaselineOOM: with a device capacity below the Θ(G·K·D) requirement
// the baseline fails with ErrOutOfMemory while unique succeeds — the "*"
// rows of Tables III/IV in miniature.
func TestBaselineOOM(t *testing.T) {
	const g, k, d, vocab = 8, 128, 32, 64
	grads := makeGrads(g, k, d, vocab, 6)
	// Budget sits between unique's need and baseline's need.
	bNeed := BaselineCost(g, k, d, false).ScratchBytes
	capacity := bNeed / 2

	makeDevs := func() []*cluster.Device {
		devs := make([]*cluster.Device, g)
		for i := range devs {
			devs[i] = cluster.NewDevice(i, capacity)
		}
		return devs
	}

	// Baseline must OOM.
	comm := collective.New(g)
	devs := makeDevs()
	errs := make([]error, g)
	var wg sync.WaitGroup
	for r := 0; r < g; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ctx := &Ctx{Rank: rank, Comm: comm, Dev: devs[rank]}
			_, _, errs[rank] = BaselineAllGather{}.Exchange(ctx, grads[rank])
		}(r)
	}
	wg.Wait()
	oom := false
	for _, err := range errs {
		if _, ok := err.(*cluster.ErrOutOfMemory); ok {
			oom = true
		}
	}
	if !oom {
		t.Fatal("baseline did not OOM under restricted capacity")
	}

	// Unique must fit.
	updates, _ := runExchange2(t, UniqueExchange{}, grads, makeDevs())
	checkAgainstReference(t, "unique-under-budget", updates[0], referenceUpdate(grads), 1e-3)
}

// runExchange2 is runExchange with devices but no wire (avoids signature
// churn in the OOM test).
func runExchange2(t *testing.T, ex Exchanger, grads []SparseGrad, devs []*cluster.Device) ([]Update, []Stats) {
	t.Helper()
	return runExchange(t, ex, grads, nil, devs)
}

// TestAsymmetricOOMDoesNotDeadlock: when only SOME ranks can allocate,
// the exchange must abort on every rank (ErrPeerOOM on survivors) instead
// of deadlocking the collective.
func TestAsymmetricOOMDoesNotDeadlock(t *testing.T) {
	const g, k, d, vocab = 4, 64, 16, 80
	grads := makeGrads(g, k, d, vocab, 12)
	devs := make([]*cluster.Device, g)
	for i := range devs {
		capacity := int64(1 << 30)
		if i == 2 {
			capacity = 1 // rank 2 cannot allocate anything
		}
		devs[i] = cluster.NewDevice(i, capacity)
	}
	for _, ex := range []Exchanger{UniqueExchange{}, BaselineAllGather{}} {
		comm := collective.New(g)
		errs := make([]error, g)
		done := make(chan struct{})
		go func() {
			var wg sync.WaitGroup
			for r := 0; r < g; r++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					ctx := &Ctx{Rank: rank, Comm: comm, Dev: devs[rank]}
					_, _, errs[rank] = ex.Exchange(ctx, grads[rank])
				}(r)
			}
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-timeAfter():
			t.Fatalf("%s deadlocked under asymmetric OOM", ex.Name())
		}
		for rank, err := range errs {
			if err == nil {
				t.Errorf("%s rank %d: expected an error", ex.Name(), rank)
				continue
			}
			var oom *cluster.ErrOutOfMemory
			if rank == 2 {
				if !errors.As(err, &oom) {
					t.Errorf("%s rank 2: got %v, want OOM", ex.Name(), err)
				}
			} else if !errors.Is(err, ErrPeerOOM) {
				t.Errorf("%s rank %d: got %v, want ErrPeerOOM", ex.Name(), rank, err)
			}
		}
		// No leaked allocations after abort.
		for i, dev := range devs {
			if dev.Live() != 0 {
				t.Errorf("%s device %d leaked %d bytes", ex.Name(), i, dev.Live())
			}
		}
	}
}

func timeAfter() <-chan time.Time { return time.After(10 * time.Second) }

func TestValidateRejectsMalformed(t *testing.T) {
	bad := SparseGrad{Indices: []int{1, 2}, Rows: tensor.NewMatrix(3, 4)}
	if bad.Validate() == nil {
		t.Error("mismatched SparseGrad must fail validation")
	}
	var nilRows SparseGrad
	if nilRows.Validate() == nil {
		t.Error("nil-rows SparseGrad must fail validation")
	}
	comm := collective.New(1)
	ctx := &Ctx{Rank: 0, Comm: comm}
	if _, _, err := (UniqueExchange{}).Exchange(ctx, bad); err == nil {
		t.Error("exchange must reject malformed gradient")
	}
	if _, _, err := (BaselineAllGather{}).Exchange(ctx, bad); err == nil {
		t.Error("baseline must reject malformed gradient")
	}
}

func TestExpectedUnique(t *testing.T) {
	// Saturation at vocab.
	if got := ExpectedUnique(1_000_000, 0.64, 7.02, 100); got != 100 {
		t.Errorf("saturated U = %d, want 100", got)
	}
	// Never above N.
	if got := ExpectedUnique(3, 0.64, 7.02, 1000); got > 3 {
		t.Errorf("U = %d exceeds N = 3", got)
	}
	// Paper's Figure 1 point: N = 40M tokens → U ~100× smaller.
	u := ExpectedUnique(40_000_000, 0.64, 7.02, 1<<40)
	ratio := 40_000_000.0 / float64(u)
	if ratio < 50 || ratio > 200 {
		t.Errorf("N/U = %v, paper says ~100×", ratio)
	}
}

func TestMemoryReductionGrowsWithG(t *testing.T) {
	const k, d = 640, 512
	prev := 0.0
	for _, g := range []int{8, 16, 24} {
		ug := ExpectedUnique(g*k, 0.64, 7.02, 100_000)
		// The baseline/unique scratch ratio — the "8.6× memory reduction"
		// style numbers of §V-A.
		red := float64(BaselineCost(g, k, d, false).ScratchBytes) /
			float64(UniqueCost(g, k, min(k, ug), ug, d, false).ScratchBytes)
		if red <= prev {
			t.Errorf("memory reduction not increasing: %v at G=%d after %v", red, g, prev)
		}
		prev = red
	}
	// The exchange-scratch-only ratio at this small config is ~3.8×; the
	// paper's 8.6× headline additionally counts model/activation memory,
	// which the experiments package models on top of these formulas.
	if prev < 2.5 {
		t.Errorf("memory reduction at 24 GPUs = %v, expected several-fold", prev)
	}
}

func TestLocalReduce(t *testing.T) {
	grad := SparseGrad{
		Indices: []int{5, 3, 5, 9, 3},
		Rows: tensor.NewMatrixFrom(5, 2, []float32{
			1, 1,
			2, 2,
			10, 10,
			4, 4,
			20, 20,
		}),
	}
	idx, rows := localReduce(NewWorkspace(), grad)
	if len(idx) != 3 || idx[0] != 3 || idx[1] != 5 || idx[2] != 9 {
		t.Fatalf("idx = %v", idx)
	}
	if rows.At(0, 0) != 22 || rows.At(1, 0) != 11 || rows.At(2, 0) != 4 {
		t.Errorf("rows = %v", rows.Data)
	}
}

func TestGlobalUnique(t *testing.T) {
	got := globalUnique(nil, [][]int{{3, 1, 3}, {2, 1}, {}})
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
