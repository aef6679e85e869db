package collective_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"zipflm/internal/collective"
	"zipflm/internal/half"
	"zipflm/internal/perfmodel"
	"zipflm/internal/rng"
	"zipflm/internal/tensor"
	"zipflm/internal/vclock"
)

// yielding is a Wire that gives the processor away every time it is called,
// so the interleavings the scheduler would produce once in a long while
// happen on every run of the references and adapters that run one
// goroutine per rank. A nil wire has no call-out to hang this on; there the
// GOMAXPROCS sweep is the only perturbation.
type yielding struct{ collective.Wire }

func (y yielding) RoundTrip(x []float32) {
	runtime.Gosched()
	y.Wire.RoundTrip(x)
}

func (y yielding) AddRoundTrip(dst, src []float32) {
	runtime.Gosched()
	y.Wire.AddRoundTrip(dst, src)
}

func withYields(w collective.Wire) collective.Wire {
	if w == nil {
		return nil
	}
	return yielding{w}
}

// chunk restates the ring's chunk bounds: n elements in g nearly equal
// contiguous chunks, the first n%g one longer.
func chunk(n, g, i int) (lo, hi int) {
	lo = i*(n/g) + min(i, n%g)
	hi = lo + n/g
	if i < n%g {
		hi++
	}
	return lo, hi
}

// wireBytes restates a wire's footprint: 4 bytes an element without one.
func wireBytes(w collective.Wire, n int) int64 {
	if w == nil {
		return int64(4 * n)
	}
	return int64(w.WireBytes(n))
}

// serialRing is the ring all-reduce written without the ring: one goroutine
// visits the ranks in turn, every hop's sender rounds the chunk it forwards
// in place — parts ascending — before its receiver adds it, each owner rounds
// its reduced chunk once more, and everyone gets the owner's bytes. It is
// the sender-side definition: the executor, whose receivers round as they
// add, must land on the same bits.
func serialRing(xs [][][]float32, wire collective.Wire) {
	g := len(xs)
	if g == 1 {
		return
	}
	round := func(r, idx int) {
		if wire == nil {
			return
		}
		for _, p := range xs[r] {
			lo, hi := chunk(len(p), g, idx)
			wire.RoundTrip(p[lo:hi])
		}
	}
	for step := 0; step < g-1; step++ {
		for r := 0; r < g; r++ {
			round(r, ((r-step)%g+g)%g)
		}
		for r := 0; r < g; r++ {
			prev, idx := (r-1+g)%g, ((r-step-1)%g+g)%g
			for pi, p := range xs[r] {
				lo, hi := chunk(len(p), g, idx)
				for i := lo; i < hi; i++ {
					p[i] += xs[prev][pi][i]
				}
			}
		}
	}
	for r := 0; r < g; r++ {
		round(r, (r+1)%g)
	}
	for idx := 0; idx < g; idx++ {
		owner := (idx - 1 + g) % g
		for r := 0; r < g; r++ {
			for pi, p := range xs[r] {
				lo, hi := chunk(len(p), g, idx)
				copy(p[lo:hi], xs[owner][pi][lo:hi])
			}
		}
	}
}

// goroutineRing is the ring all-reduce as G ranks run it, and as this
// package ran it before the executor: one goroutine per rank, and each hop
// one message over a channel to the successor — the sender's part list,
// whose chunks the receiver reads in place and rounds as it adds. It returns
// the bytes each rank put on the wire.
func goroutineRing(xs [][][]float32, wire collective.Wire) []int64 {
	g := len(xs)
	sent := make([]int64, g)
	if g == 1 {
		return sent
	}
	ring := make([]chan [][]float32, g)
	for r := range ring {
		ring[r] = make(chan [][]float32, 1)
	}
	onRanks(g, func(rank int) {
		parts := xs[rank]
		hop := func() [][]float32 {
			ring[(rank+1)%g] <- parts
			return <-ring[rank]
		}
		for step := 0; step < g-1; step++ {
			sendIdx, recvIdx := ((rank-step)%g+g)%g, ((rank-step-1)%g+g)%g
			for _, p := range parts {
				lo, hi := chunk(len(p), g, sendIdx)
				sent[rank] += wireBytes(wire, hi-lo)
			}
			for pi, src := range hop() {
				p := parts[pi]
				lo, hi := chunk(len(p), g, recvIdx)
				if wire != nil {
					wire.AddRoundTrip(p[lo:hi], src[lo:hi])
					continue
				}
				for i := lo; i < hi; i++ {
					p[i] += src[i]
				}
			}
		}
		if wire != nil {
			for _, p := range parts {
				lo, hi := chunk(len(p), g, (rank+1)%g)
				wire.RoundTrip(p[lo:hi])
			}
		}
		for step := 0; step < g-1; step++ {
			sendIdx, recvIdx := ((rank-step+1)%g+g)%g, ((rank-step)%g+g)%g
			for _, p := range parts {
				lo, hi := chunk(len(p), g, sendIdx)
				sent[rank] += wireBytes(wire, hi-lo)
			}
			for pi, src := range hop() {
				p := parts[pi]
				lo, hi := chunk(len(p), g, recvIdx)
				copy(p[lo:hi], src[lo:hi])
			}
		}
	})
	return sent
}

func onRanks(g int, fn func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < g; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn(rank)
		}(r)
	}
	wg.Wait()
}

// rankTensors builds every rank's copy of the same shapes, filled from a
// rank-dependent stream: the same call returns the same values.
func rankTensors(g int, shapes []int, seed uint64) [][][]float32 {
	xs := make([][][]float32, g)
	for r := range xs {
		rr := rng.New(seed + uint64(r)*1315423911)
		xs[r] = make([][]float32, len(shapes))
		for i, n := range shapes {
			xs[r][i] = make([]float32, n)
			for j := range xs[r][i] {
				xs[r][i][j] = float32(rr.Float64()*4 - 2)
			}
		}
	}
	return xs
}

// cloneTensors returns a deep copy of xs.
func cloneTensors(xs [][][]float32) [][][]float32 {
	out := make([][][]float32, len(xs))
	for r, parts := range xs {
		for _, p := range parts {
			out[r] = append(out[r], append([]float32(nil), p...))
		}
	}
	return out
}

func sameTensors(t *testing.T, what string, got, want [][][]float32) {
	t.Helper()
	for r := range want {
		for i := range want[r] {
			for j := range want[r][i] {
				if got[r][i][j] != want[r][i][j] {
					t.Fatalf("%s: rank %d tensor %d (len %d) elem %d: %v, want %v",
						what, r, i, len(want[r][i]), j, got[r][i][j], want[r][i][j])
				}
			}
		}
	}
}

// matrixLink prices every call of the matrix: round numbers, so a clock that
// misses a charge or takes one twice is off by a visible amount.
var matrixLink = perfmodel.LinkCost{Alpha: 1e-5, BytesPerSec: 1e9}

// pricedComm returns a communicator that prices on a fresh clock, started
// at a g-dependent time so that every charge must add to where it was, and
// that time.
func pricedComm(g int) (*collective.Comm, *vclock.Clock, float64) {
	c := collective.New(g)
	clock := startedClock(g)
	c.AttachCost(&collective.CostModel{Link: matrixLink, Clock: clock})
	return c, clock, clock.Now()
}

// startedClock returns a fresh clock started at g ms.
func startedClock(g int) *vclock.Clock {
	clock := new(vclock.Clock)
	clock.Advance(float64(g) * 1e-3)
	return clock
}

// schedule is the matrix's adversarial schedule: body runs once per
// GOMAXPROCS × cluster size, as subtest procs=P/g=G with GOMAXPROCS set for
// its duration and draw seeded from both, so a cell's random choices repeat.
func schedule(t *testing.T, body func(t *testing.T, g int, draw *rng.RNG)) {
	for _, procs := range []int{1, 2, 8} {
		for _, g := range []int{1, 2, 3, 4, 5, 7, 8} {
			t.Run(fmt.Sprintf("procs=%d/g=%d", procs, g), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				body(t, g, rng.New(uint64(31*g+procs)))
			})
		}
	}
}

// TestRingFusedMatrix is the all-reduce's equivalence matrix. For every
// cluster size, part list, wire and GOMAXPROCS below — on communicators that
// lend a pool of one worker per core, as the trainer's do, so at procs 2 and
// 8 the list above tensor.ElementwiseMinWork runs on several workers:
//
//   - the goroutine ring, whose receivers round as they add, leaves on every
//     rank the bits serialRing computes rounding on the sender, so the two
//     references agree;
//   - one AllReduceRanks call leaves those bits in rank 0's tensors, counts
//     on each rank one call per tensor and the bytes that rank sends in the
//     goroutine ring, and advances the clock by one ring over the
//     tensors' summed chunk bytes;
//   - the per-rank AllReduce adapter, called once per tensor from one
//     goroutine per rank, leaves on every rank the bits of serialRing run
//     tensor by tensor, with the same Stats, and a ring per tensor on the
//     clock.
func TestRingFusedMatrix(t *testing.T) {
	wires := []struct {
		name string
		wire collective.Wire
	}{
		{"fp32", nil},
		{"fp16", half.NewScaler(512)},
		// Scaled below FP16's normal range, so every value crosses as a
		// subnormal with a few bits left: the underflow compression scaling
		// exists to avoid.
		{"fp16-underflow", half.NewScaler(1.0 / (1 << 16))},
		// Scaled so that the inputs fit but their partial sums overflow:
		// hops and owners saturate to FP16's largest finite value.
		{"fp16-saturating", half.NewScaler(1 << 14)},
	}

	schedule(t, func(t *testing.T, g int, draw *rng.RNG) {
		sizes := []int{0, 1, g - 1, g, g + 1, 1000}
		seventeen := append([]int(nil), sizes...)
		be := tensor.New(runtime.GOMAXPROCS(0))
		if be.Workers() > 1 {
			// One tensor above the cutoff puts the list on the pool, whose
			// workers then take the ring's chunk sets.
			seventeen = append(seventeen, tensor.ElementwiseMinWork+5)
		}
		for len(seventeen) < 17 {
			seventeen = append(seventeen, sizes[draw.Intn(len(sizes))])
		}
		for _, shapes := range [][]int{{}, {1000}, seventeen} {
			initial := rankTensors(g, shapes, 7)
			for _, w := range wires {
				t.Run(fmt.Sprintf("parts=%d/%s", len(shapes), w.name), func(t *testing.T) {
					want := cloneTensors(initial)
					serialRing(want, w.wire)
					if s, ok := w.wire.(*half.Scaler); ok && s.Factor == 1<<14 && g >= 4 && len(shapes) > 0 {
						// Sums of four or more ranks overflow somewhere in a
						// thousand elements: the row must reach the clamp.
						if !slices.ContainsFunc(want[0], func(p []float32) bool {
							return slices.Contains(p, 65504/s.Factor) || slices.Contains(p, -65504/s.Factor)
						}) {
							t.Fatal("no element saturated: the row does not reach FP16's clamp")
						}
					}
					ring := cloneTensors(initial)
					sent := goroutineRing(ring, withYields(w.wire))
					sameTensors(t, "goroutine ring vs serial definition", ring, want)

					got := cloneTensors(initial)
					c, clock, start := pricedComm(g)
					c.AttachBackend(be)
					c.AllReduceRanks(got, w.wire)
					sameTensors(t, "AllReduceRanks rank 0 vs serial definition", got[:1], want[:1])
					var chunkBytes int64
					for _, n := range shapes {
						chunkBytes += wireBytes(w.wire, (n+g-1)/g)
					}
					for r := 0; r < g; r++ {
						if s := c.RankStats(r); s != (collective.Stats{AllReduceCalls: int64(len(shapes)), AllReduceBytes: sent[r]}) {
							t.Fatalf("rank %d stats %+v, want %d calls and the goroutine ring's %d bytes", r, s, len(shapes), sent[r])
						}
					}
					if now, want := clock.Now(), start+matrixLink.RingAllReduceSeconds(g, chunkBytes); now != want {
						t.Fatalf("virtual clock %v, want one ring over %d chunk bytes = %v", now, chunkBytes, want)
					}

					// Tensor by tensor: the definition, then the adapter.
					perTensor := cloneTensors(initial)
					column := make([][][]float32, g)
					for i := range shapes {
						for r := range column {
							column[r] = perTensor[r][i : i+1]
						}
						serialRing(column, w.wire)
					}
					adapted := cloneTensors(initial)
					ac, aclock, astart := pricedComm(g)
					ac.AttachBackend(be)
					aw := withYields(w.wire)
					onRanks(g, func(rank int) {
						for _, x := range adapted[rank] {
							ac.AllReduce(rank, x, aw)
						}
					})
					sameTensors(t, "AllReduce adapter vs serial definition per tensor", adapted, perTensor)
					wantClock := astart
					for _, n := range shapes {
						wantClock += matrixLink.RingAllReduceSeconds(g, wireBytes(w.wire, (n+g-1)/g))
					}
					for r := 0; r < g; r++ {
						if ac.RankStats(r) != c.RankStats(r) {
							t.Fatalf("rank %d stats: adapter %+v, batched %+v", r, ac.RankStats(r), c.RankStats(r))
						}
					}
					if now := aclock.Now(); now != wantClock {
						t.Fatalf("adapter clock %v, want a ring per tensor = %v", now, wantClock)
					}
				})
			}
		}
	})
}

// TestAllReduceRanksRejectsRaggedShapes: a part list whose shape differs
// from rank 0's panics, naming the rank and part, before any tensor moves.
func TestAllReduceRanksRejectsRaggedShapes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shapes [][]int
		msg    string
	}{
		{"part count", [][]int{{4, 4}, {4, 4}, {4}}, "collective: rank 2 passes 1 parts, rank 0 passes 2"},
		{"part length", [][]int{{4, 4}, {4, 5}, {4, 4}}, "collective: rank 1 part 1 has 5 elements, rank 0's has 4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			xs := make([][][]float32, len(tc.shapes))
			for r, shape := range tc.shapes {
				xs[r] = rankTensors(1, shape, uint64(r))[0]
			}
			before := fmt.Sprint(xs)
			c := collective.New(len(xs))
			func() {
				defer func() {
					if got := recover(); got != tc.msg {
						t.Fatalf("panic %v, want %q", got, tc.msg)
					}
				}()
				c.AllReduceRanks(xs, nil)
			}()
			if fmt.Sprint(xs) != before {
				t.Fatal("a rejected call wrote a tensor")
			}
			if c.RankStats(0) != (collective.Stats{}) {
				t.Fatal("a rejected call was counted")
			}
		})
	}
}

// gatherCase is one batched collective of TestGatherMatrix with its serial
// oracle: call issues it on c and returns what it produced, want is what it
// must produce, stats what it adds to each rank's counters, and seconds what
// it adds to the clock.
type gatherCase struct {
	call    func(c *collective.Comm) any
	want    any
	stats   collective.Stats
	seconds float64
}

// ringGather is the serial account of a ring all-gather of payloads of these
// wire sizes: each rank sends (G−1)/G of their total, and the ring takes one
// hop per peer at the largest.
func ringGather(sizes []int64) (bytes int64, seconds float64) {
	g := int64(len(sizes))
	var total, largest int64
	for _, b := range sizes {
		total += b
		largest = max(largest, b)
	}
	return total * (g - 1) / g, matrixLink.RingAllGatherSeconds(len(sizes), largest)
}

// gatherInts: the indices are accounted, four bytes each on the wire, and
// left as they were.
func gatherInts(lens []int, seed uint64) gatherCase {
	draw := rng.New(seed)
	ins := make([][]int, len(lens))
	sizes := make([]int64, len(lens))
	for r, n := range lens {
		ins[r] = make([]int, n)
		for i := range ins[r] {
			ins[r][i] = draw.Intn(1 << 20)
		}
		sizes[r] = int64(4 * n)
	}
	want := fmt.Sprint(ins)
	bytes, seconds := ringGather(sizes)
	return gatherCase{
		call: func(c *collective.Comm) any {
			c.AllGatherIntsRanks(ins)
			return fmt.Sprint(ins)
		},
		want:    want,
		stats:   collective.Stats{AllGatherCalls: 1, AllGatherBytes: bytes},
		seconds: seconds,
	}
}

// gatherFloats: every payload ends as it crossed the wire — rounded once,
// when there is one. perRank issues the gather as core's per-rank Exchange
// issues its gathers: one goroutine per rank posts its payload to
// Rendezvous, and rank 0 gathers the group's.
func gatherFloats(wire collective.Wire, perRank bool) func(lens []int, seed uint64) gatherCase {
	return func(lens []int, seed uint64) gatherCase {
		draw := rng.New(seed)
		ins := make([][]float32, len(lens))
		want := make([][]float32, len(lens))
		sizes := make([]int64, len(lens))
		for r, n := range lens {
			ins[r] = make([]float32, n)
			for i := range ins[r] {
				ins[r][i] = float32(draw.Float64()*4 - 2)
			}
			want[r] = append([]float32{}, ins[r]...)
			sizes[r] = wireBytes(wire, n)
			if wire != nil {
				wire.RoundTrip(want[r])
			}
		}
		bytes, seconds := ringGather(sizes)
		return gatherCase{
			call: func(c *collective.Comm) any {
				if !perRank {
					c.AllGatherFloatsRanks(ins, wire)
					return fmt.Sprint(ins)
				}
				onRanks(len(ins), func(rank int) {
					c.Rendezvous(rank, ins[rank], func(posts []any) {
						payloads := make([][]float32, len(posts))
						for r, p := range posts {
							payloads[r] = p.([]float32)
						}
						c.AllGatherFloatsRanks(payloads, wire)
					})
				})
				return fmt.Sprint(ins)
			},
			want:    fmt.Sprint(want),
			stats:   collective.Stats{AllGatherCalls: 1, AllGatherBytes: bytes},
			seconds: seconds,
		}
	}
}

// agree: the group learns whether every rank voted yes (here: has a nonzero
// length); the vote puts no bytes on the wire and costs no time.
func agree(lens []int, _ uint64) gatherCase {
	votes := make([]bool, len(lens))
	all := true
	for r, n := range lens {
		votes[r] = n > 0
		all = all && votes[r]
	}
	return gatherCase{
		call: func(c *collective.Comm) any { return c.AgreeRanks(votes) },
		want: all,
	}
}

// agreeAdapter is agree run per rank, one goroutine each, through
// Rendezvous: every rank posts its vote, rank 0 runs AgreeRanks for the
// group, and every rank must learn the same answer.
func agreeAdapter(lens []int, seed uint64) gatherCase {
	gc := agree(lens, seed)
	gc.call = func(c *collective.Comm) any {
		type vote struct{ ok, all bool }
		posts := make([]vote, len(lens))
		onRanks(len(lens), func(rank int) {
			posts[rank].ok = lens[rank] > 0
			c.Rendezvous(rank, &posts[rank], func(ps []any) {
				votes := make([]bool, len(ps))
				for r, p := range ps {
					votes[r] = p.(*vote).ok
				}
				all := c.AgreeRanks(votes)
				for _, p := range ps {
					p.(*vote).all = all
				}
			})
		})
		for _, p := range posts[1:] {
			if p.all != posts[0].all {
				return fmt.Sprintf("ranks disagree: %v", posts)
			}
		}
		return posts[0].all
	}
	return gc
}

// TestGatherMatrix holds the gathers and the vote — batched, and per rank
// through Rendezvous — to their serial oracles on the ring matrix's
// schedule, with ragged per-rank lengths including 0, on a communicator
// whose cost model is its first or one re-attached over another, as the
// trainer's is around its overlapped reductions. Each call must produce the
// oracle's result and add the oracle's Stats to every rank, the attached
// model's clock must end at its start plus the oracle's seconds, and the
// clock of the model it replaced must not move.
func TestGatherMatrix(t *testing.T) {
	ops := []struct {
		name  string
		build func(lens []int, seed uint64) gatherCase
	}{
		{"gather-ints", gatherInts},
		{"gather-floats-fp32", gatherFloats(nil, false)},
		{"gather-floats-fp16", gatherFloats(half.NewScaler(512), false)},
		// Half of the inputs overflow once scaled, and cross clamped.
		{"gather-floats-fp16-saturating", gatherFloats(half.NewScaler(1<<16), false)},
		{"gather-floats-adapter", gatherFloats(half.NewScaler(512), true)},
		{"agree", agree},
		{"agree-adapter", agreeAdapter},
	}
	schedule(t, func(t *testing.T, g int, _ *rng.RNG) {
		for shift := 0; shift < 2; shift++ {
			sizes := []int{0, 1, g + 1, 40}
			lens := make([]int, g)
			for r := range lens {
				lens[r] = sizes[(r+shift)%len(sizes)]
			}
			for _, op := range ops {
				for _, cost := range []string{"attached", "reattached"} {
					t.Run(fmt.Sprintf("shift=%d/%s/cost=%s", shift, op.name, cost), func(t *testing.T) {
						gc := op.build(lens, uint64(97*shift+g))
						c, clock, start := pricedComm(g)
						var replaced *vclock.Clock
						var replacedAt float64
						if cost == "reattached" {
							replaced, replacedAt = clock, start
							clock = startedClock(g + 1)
							start = clock.Now()
							c.AttachCost(&collective.CostModel{Link: matrixLink, Clock: clock})
						}
						if got := gc.call(c); fmt.Sprint(got) != fmt.Sprint(gc.want) {
							t.Fatalf("produced %v, want %v", got, gc.want)
						}
						for r := 0; r < g; r++ {
							if s := c.RankStats(r); s != gc.stats {
								t.Fatalf("rank %d stats %+v, want %+v", r, s, gc.stats)
							}
						}
						if now, want := clock.Now(), start+gc.seconds; now != want {
							t.Fatalf("virtual clock %v, want %v", now, want)
						}
						if replaced != nil && replaced.Now() != replacedAt {
							t.Fatalf("the replaced model's clock moved from %v to %v", replacedAt, replaced.Now())
						}
					})
				}
			}
		}
	})
}
