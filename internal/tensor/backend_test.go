package tensor

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zipflm/internal/israce"
	"zipflm/internal/rng"
)

// backendShapes are the (m, k, n) problem sizes the bit-identity property
// test sweeps: empty, zero-row, zero-inner, single-row (the serving batch-1
// shape, which tiles columns), odd extents, widths not divisible by the
// kernels' 4-wide unrolling, and sizes above parallelMinWork so the tiled
// dispatch path actually runs.
var backendShapes = [][3]int{
	{0, 0, 0},
	{0, 5, 3},
	{3, 0, 4},
	{1, 7, 5},
	{7, 9, 5},
	{5, 6, 3},
	{1, 64, 512},
	{33, 65, 29},
	{48, 33, 47},
}

// backendWorkerCounts includes 1 (Serial), even and odd splits, and more
// workers than this container has cores.
var backendWorkerCounts = []int{1, 2, 3, 4, 7}

// bitsEqual compares two matrices for exact bit equality (NaNs included —
// tolerance-based comparison would hide both low-order drift and poison
// values, the two things the backend contract forbids).
func bitsEqual(t *testing.T, ctx string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: got %dx%d, want %dx%d", ctx, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v (bits %08x), serial %v (bits %08x)",
				ctx, i, got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// TestBackendBitIdentity is the backend contract for the FP32 product, at
// every worker count, over every shape — including degenerate and unaligned
// ones: exactly the bits the serial reference produces. (The int8 product's
// twin is in TestQ8KernelBitIdentity.)
func TestBackendBitIdentity(t *testing.T) {
	r := rng.New(99)
	for _, shape := range backendShapes {
		m, k, n := shape[0], shape[1], shape[2]
		a, bt := randMatrix(r, m, k), randMatrix(r, n, k)
		want := NewMatrix(m, n)
		MatMulABT(want, a, bt)

		for _, workers := range backendWorkerCounts {
			be := New(workers)
			got := NewMatrix(m, n)
			be.MatMulABT(got, a, bt)
			bitsEqual(t, fmt.Sprintf("shape %dx%dx%d workers %d MatMulABT", m, k, n, workers), got, want)

			if p, ok := be.(*Parallel); ok {
				p.Close()
			}
		}
	}
}

// TestBackendSharedAcrossCalls exercises one long-lived Parallel across many
// consecutive calls (the trainer and server hold a single instance for the
// whole process) — reusing the helpers, awake or parked, must stay
// bit-identical.
func TestBackendSharedAcrossCalls(t *testing.T) {
	r := rng.New(7)
	p := NewParallel(4)
	defer p.Close()
	for trial := 0; trial < 20; trial++ {
		m, k, n := r.Intn(40)+1, r.Intn(40)+1, r.Intn(40)+1
		a, bt := randMatrix(r, m, k), randMatrix(r, n, k)
		want := NewMatrix(m, n)
		MatMulABT(want, a, bt)
		got := NewMatrix(m, n)
		p.MatMulABT(got, a, bt)
		bitsEqual(t, fmt.Sprintf("trial %d (%dx%dx%d)", trial, m, k, n), got, want)
	}
}

// TestBackendNaNInfPropagation is the regression test for the zero-skip
// poison bug: MatMul and MatMulATBAcc skip the inner loop when a[i][k] == 0,
// but IEEE 0×Inf and 0×NaN are NaN, so skipping a b-row that carries Inf/NaN
// silently dropped the poison instead of propagating it. The skip is now
// gated on the b-row being finite; NaN and Inf must reach the output.
func TestBackendNaNInfPropagation(t *testing.T) {
	poisons := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for pi, poison := range poisons {
		r := rng.New(uint64(1000 + pi))
		m, k, n := 17, 33, 64

		a := randMatrix(r, m, k)
		b := randMatrix(r, k, n)
		// Zero an entire a-column so every row skips k = 5, and poison that
		// b-row: the buggy skip loses it, the finite-gated skip keeps it.
		for i := 0; i < m; i++ {
			a.Row(i)[5] = 0
		}
		b.Row(5)[12] = poison

		want := NewMatrix(m, n)
		MatMul(want, a, b)
		for i := 0; i < m; i++ {
			if v := want.At(i, 12); !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
				t.Fatalf("serial MatMul dropped %v: row %d col 12 = %v", poison, i, v)
			}
		}

		// ATBAcc orientation: zero an a-row (skips the whole k = 5 term) and
		// poison b's k = 5 row.
		at := randMatrix(r, k, m)
		for j := 0; j < m; j++ {
			at.Row(5)[j] = 0
		}
		wantAcc := NewMatrix(m, n)
		MatMulATBAcc(wantAcc, at, b)
		sawPoison := false
		for i := range wantAcc.Data {
			f := float64(wantAcc.Data[i])
			if math.IsNaN(f) || math.IsInf(f, 0) {
				sawPoison = true
				break
			}
		}
		if !sawPoison {
			t.Fatalf("serial MatMulATBAcc dropped %v entirely", poison)
		}
	}
}

// TestAllFinite pins the finiteness scan the skip gate relies on.
func TestAllFinite(t *testing.T) {
	if !allFinite(nil) || !allFinite([]float32{}) {
		t.Fatal("empty slices are vacuously finite")
	}
	if !allFinite([]float32{1, -2, 0, 3.5, -0.25}) {
		t.Fatal("finite slice misreported")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pos := 0; pos < 6; pos++ { // cover unrolled body and tail
			x := []float32{1, 2, 3, 4, 5, 6}
			x[pos] = float32(bad)
			if allFinite(x) {
				t.Fatalf("allFinite missed %v at index %d", bad, pos)
			}
		}
	}
}

// TestParallelDispatchZeroAlloc guards the persistent-pool design: once the
// helpers exist, a kernel call must not allocate — the batched decoder's
// FP32 products run through this path (TestQ8DispatchZeroAlloc holds the
// int8 ones). AllocsPerRun warms up once before measuring, so the pool spawn
// in NewParallel is excluded. The race detector instruments channel ops with
// allocations, so the measurement is meaningless under -race.
func TestParallelDispatchZeroAlloc(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	p := NewParallel(4)
	defer p.Close()
	r := rng.New(5)
	a := randMatrix(r, 64, 64)
	bt := randMatrix(r, 64, 64)
	dst := NewMatrix(64, 64)
	if allocs := testing.AllocsPerRun(50, func() { p.MatMulABT(dst, a, bt) }); allocs != 0 {
		t.Errorf("MatMulABT: %v allocations per call through the parallel backend, want 0", allocs)
	}
}

// TestBackendFor is For's contract at every worker count: each index gets
// exactly one call, all of them before For returns; a panic in a call comes
// back to the caller (from whichever goroutine ran it) and leaves the backend
// usable; and once the helpers exist a For allocates nothing.
func TestBackendFor(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		be := New(workers)
		for _, n := range []int{0, 1, 2, 7, 8, 33} {
			calls := make([]int, n) // index i is written only by the call for i
			be.For(n, func(i int) { calls[i]++ })
			for i, c := range calls {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d called %d times", workers, n, i, c)
				}
			}
			for bad := 0; bad < n; bad += 3 {
				func() {
					defer func() {
						if v := recover(); v != fmt.Sprint("boom ", bad) {
							t.Fatalf("workers=%d n=%d: For recovered %v, want the panic of index %d", workers, n, v, bad)
						}
					}()
					be.For(n, func(i int) {
						if i == bad {
							panic(fmt.Sprint("boom ", i))
						}
					})
				}()
			}
			var sum atomic.Int64
			be.For(n, func(i int) { sum.Add(int64(i)) })
			if want := int64(n * (n - 1) / 2); sum.Load() != want {
				t.Fatalf("workers=%d n=%d: after a panic, For summed %d, want %d", workers, n, sum.Load(), want)
			}
		}
		if p, ok := be.(*Parallel); ok {
			if !israce.Enabled {
				fn := func(i int) {}
				if allocs := testing.AllocsPerRun(50, func() { p.For(8, fn) }); allocs != 0 {
					t.Errorf("workers=%d: %v allocations per For, want 0", workers, allocs)
				}
			}
			p.Close()
		}
	}
}

// TestStripe: the w stripes of n elements tile [0, n) in order, every bound
// but n is a multiple of 8, and no stripe but the last is more than 8
// elements longer or shorter than n/w.
func TestStripe(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 1001, 1 << 17} {
		for w := 1; w <= 9; w++ {
			next := 0
			for i := 0; i < w; i++ {
				lo, hi := Stripe(n, w, i)
				if lo != next || hi < lo || (hi != n && hi%8 != 0) || (i < w-1 && hi-lo > n/w+8) {
					t.Fatalf("n=%d w=%d: stripe %d is [%d, %d) after %d", n, w, i, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d w=%d: stripes end at %d", n, w, next)
			}
		}
	}
}

// TestBackendConstructors pins the knob semantics the commands rely on.
func TestBackendConstructors(t *testing.T) {
	if _, ok := New(0).(Serial); !ok {
		t.Fatal("New(0) must be the serial reference")
	}
	if _, ok := New(1).(Serial); !ok {
		t.Fatal("New(1) must be the serial reference")
	}
	p, ok := New(3).(*Parallel)
	if !ok {
		t.Fatal("New(3) must be a *Parallel")
	}
	if p.Workers() != 3 || (Serial{}).Workers() != 1 {
		t.Fatalf("New(3) reports %d workers and Serial %d, want 3 and 1", p.Workers(), Serial{}.Workers())
	}
	for _, tc := range []struct {
		be   Backend
		n    int
		want int
	}{
		{nil, 1 << 20, 1}, {p, 0, 1}, {p, ElementwiseMinWork - 1, 1}, {p, ElementwiseMinWork, 2},
		{p, 3*ElementwiseMinWork/2 - 1, 2}, {p, 3 * ElementwiseMinWork / 2, 3}, {p, 1 << 20, 3}, {Serial{}, 1 << 20, 1},
	} {
		if got := Fanout(tc.be, tc.n); got != tc.want {
			t.Fatalf("Fanout(%T, %d) = %d, want %d", tc.be, tc.n, got, tc.want)
		}
	}
	p.Close()
	p.Close() // idempotent
}

// TestMatMulATBAccStackedEqualsBlocks is the property the model's
// sequence-level backward rests on: MatMulATBAcc adds the rows of its
// operands into dst in ascending order and never reads dst in between, so one
// call over row-stacked operands performs exactly the adds of one call per
// block in the same block order — dst ends with the same bits, not merely
// close ones. Swept over random shapes (some large enough to tile), with a
// non-zero starting dst and the inputs the skip rule of mulAddRows judges:
// zero multipliers, whole zero rows, signed zeros, and NaN/Inf in rows whose
// multiplier is zero (a skipped row must still poison dst).
func TestMatMulATBAccStackedEqualsBlocks(t *testing.T) {
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}

	r := rng.New(2024)
	for trial := 0; trial < 60; trial++ {
		m, n := 1+r.Intn(70), 1+r.Intn(70)
		if trial%3 == 0 {
			m, n = 40+r.Intn(40), 40+r.Intn(40) // wide enough for every vector block width
		}
		blocks := 1 + r.Intn(6)
		var as, bs []*Matrix
		total := 0
		for i := 0; i < blocks; i++ {
			k := r.Intn(9) // empty blocks included
			a, b := randMatrix(r, k, m), randMatrix(r, k, n)
			for row := 0; row < k; row++ {
				switch r.Intn(6) {
				case 0: // a sprinkling of zero and negative-zero multipliers
					for j := range a.Row(row) {
						if r.Intn(3) == 0 {
							a.Row(row)[j] = specials[r.Intn(2)]
						}
					}
				case 1: // every multiplier zero: the whole row is skipped — unless
					// it is not finite
					for j := range a.Row(row) {
						a.Row(row)[j] = specials[r.Intn(2)]
					}
					if r.Intn(2) == 0 {
						b.Row(row)[r.Intn(n)] = specials[2+r.Intn(3)]
					}
				case 2: // signed zeros and poison under ordinary multipliers
					b.Row(row)[r.Intn(n)] = specials[r.Intn(len(specials))]
				}
			}
			as, bs = append(as, a), append(bs, b)
			total += k
		}
		sa, sb := NewMatrix(total, m), NewMatrix(total, n)
		row := 0
		for i := range as {
			copy(sa.Data[row*m:], as[i].Data)
			copy(sb.Data[row*n:], bs[i].Data)
			row += as[i].Rows
		}
		start := randMatrix(r, m, n)

		perBlock, stacked := start.Clone(), start.Clone()
		for i := range as {
			MatMulATBAcc(perBlock, as[i], bs[i])
		}
		MatMulATBAcc(stacked, sa, sb)
		ctx := fmt.Sprintf("trial %d (%d blocks, %d rows, dst %dx%d)", trial, blocks, total, m, n)
		bitsEqual(t, ctx+": stacked vs per-block", stacked, perBlock)
	}
}

// poolHelpers returns the goroutines a Parallel started for its helpers,
// as their "goroutine N [state" headers keyed by goroutine id. A goroutine
// running on another processor has no stack in the dump, so a helper that
// is polling is listed only when it is not running at that moment.
func poolHelpers() map[string]string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	out := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "created by zipflm/internal/tensor.newParallel") {
			head, _, _ := strings.Cut(g, "]")
			id, _, _ := strings.Cut(head, "[")
			out[id] = head
		}
	}
	return out
}

// newHelpers returns the helpers started since before, which poolHelpers
// listed earlier.
func newHelpers(before map[string]string) map[string]string {
	out := map[string]string{}
	for id, head := range poolHelpers() {
		if _, ok := before[id]; !ok {
			out[id] = head
		}
	}
	return out
}

// TestCloseRetiresAwakeHelpers: Close ends helpers that are still inside
// their awake window, polling for the next call. The pool here keeps its
// helpers awake for an hour after each call, so they can only retire within
// the one-second bound if the polling loop watches quit. It runs at
// GOMAXPROCS 1, where a polling helper is never running while the test
// reads the stacks, so every helper is listed.
func TestCloseRetiresAwakeHelpers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := poolHelpers()
	p := newParallel(4, time.Hour)
	var calls atomic.Int64
	p.For(8, func(int) { calls.Add(1) })
	if calls.Load() != 8 {
		t.Fatalf("For made %d calls, want 8", calls.Load())
	}
	if n := len(newHelpers(before)); n != 3 {
		t.Fatalf("found %d helpers of a 4-worker pool, want 3", n)
	}
	p.Close()
	deadline := time.Now().Add(time.Second)
	for len(newHelpers(before)) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("helpers still running 1 s after Close: %v", newHelpers(before))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAwakeHelpersShareOneP runs a burst of back-to-back dispatches — the
// batched decoder's int8 products and its sampling For — at GOMAXPROCS 1,
// where an awake helper and the caller take turns on the one processor: the
// helpers' polling must yield it, or the caller waits for the runtime to
// preempt them, about 10 ms a time. It runs once with the package's window
// and once with helpers awake for an hour, where the burst finishes in well
// under the 2 s bound only if they yield (without the yield it took 8 s on a
// 2-vCPU host). Every product must match Serial
// bit for bit and every For must make each of its calls once.
func TestAwakeHelpersShareOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := rng.New(11)
	q := QuantizeMatrix(randMatrix(r, 600, 96), 32)
	for _, window := range []time.Duration{awakeWindow, time.Hour} {
		p := newParallel(4, window)
		start := time.Now()
		for i := 0; i < 200; i++ {
			a := randMatrix(r, 1+i%5, 96) // 1 to 5 rows, each call above parallelMinWork
			want, got := NewMatrix(a.Rows, q.Rows), NewMatrix(a.Rows, q.Rows)
			MatMulABTStreamQ8(want, a, q)
			p.MatMulABTStreamQ8(got, a, q)
			bitsEqual(t, fmt.Sprintf("window %v, burst call %d", window, i), got, want)
			calls := make([]int, 1+i%9)
			p.For(len(calls), func(k int) { calls[k]++ })
			for k, c := range calls {
				if c != 1 {
					t.Fatalf("window %v, burst For %d: index %d called %d times", window, i, k, c)
				}
			}
		}
		p.Close()
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("window %v: 400 dispatches on one P took %v, want under 2 s", window, d)
		}
	}
}

// TestDispatchWakesParkedHelpers: once the awake window has passed with no
// call, every helper parks on its channel, and the next dispatch still wakes
// them and completes, bit-identical to Serial.
func TestDispatchWakesParkedHelpers(t *testing.T) {
	r := rng.New(13)
	before := poolHelpers()
	p := NewParallel(3)
	defer p.Close()
	a, bt := randMatrix(r, 64, 64), randMatrix(r, 64, 64)
	want := NewMatrix(64, 64)
	MatMulABT(want, a, bt)
	got := NewMatrix(64, 64)
	p.MatMulABT(got, a, bt)
	bitsEqual(t, "before parking", got, want)
	// A helper blocked in await's final select reports "[select"; one that
	// is polling is running or runnable.
	deadline := time.Now().Add(5 * time.Second)
	for {
		helpers := newHelpers(before)
		parked := 0
		for _, head := range helpers {
			if strings.HasSuffix(head, "[select") {
				parked++
			}
		}
		if len(helpers) == 2 && parked == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("helpers not parked 5 s after the last call: %v", helpers)
		}
		time.Sleep(time.Millisecond)
	}
	got.Zero()
	p.MatMulABT(got, a, bt)
	bitsEqual(t, "after parking", got, want)
}
