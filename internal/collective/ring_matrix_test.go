package collective_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"zipflm/internal/collective"
	"zipflm/internal/compress"
	"zipflm/internal/half"
	"zipflm/internal/perfmodel"
	"zipflm/internal/rng"
	"zipflm/internal/vclock"
)

// yielding is a Wire that gives the processor away every time the ring
// calls it — between the hops of a call and between the parts of a hop — so
// the interleavings the scheduler would produce once in a long while happen
// on every run. A nil wire has no call-out to hang this on; there the
// GOMAXPROCS sweep is the only perturbation.
type yielding struct{ collective.Wire }

func (y yielding) RoundTrip(x []float32) {
	runtime.Gosched()
	y.Wire.RoundTrip(x)
}

// yieldingAdd is yielding for a wire that also rounds on receive.
type yieldingAdd struct {
	yielding
	add collective.AddRounder
}

func (y yieldingAdd) AddRoundTrip(dst, src []float32) {
	runtime.Gosched()
	y.add.AddRoundTrip(dst, src)
}

func withYields(w collective.Wire) collective.Wire {
	if w == nil {
		return nil
	}
	if add, ok := w.(collective.AddRounder); ok {
		return yieldingAdd{yielding{w}, add}
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

// serialRing is the ring all-reduce written without the ring: one goroutine
// visits the ranks in turn, every hop's sender rounds the chunk it forwards
// in place — parts ascending — before its receiver adds it, each owner rounds
// its reduced chunk once more, and everyone gets the owner's bytes. It is
// the sender-side definition: a wire that rounds on receive must land on the
// same bits, and a stateful wire must see exactly this sequence of calls.
func serialRing(xs [][][]float32, wires []collective.Wire) {
	g := len(xs)
	if g == 1 {
		return
	}
	round := func(r, idx int) {
		if wires[r] == nil {
			return
		}
		for _, p := range xs[r] {
			lo, hi := chunk(len(p), g, idx)
			wires[r].RoundTrip(p[lo:hi])
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

// TestRingFusedMatrix is the ring's equivalence matrix. For every cluster
// size, part list, wire, lane and GOMAXPROCS below, one AllReduceParts call
//
//   - leaves on every rank the bits serialRing computes (stochastic Quant8
//     included: its per-rank streams are consumed in the same order);
//   - equals one AllReduce per tensor in values and per-rank Stats, for the
//     wires whose rounding does not depend on call order (a stochastic stream
//     is consumed hop-major by a fused call and tensor-major otherwise);
//   - advances every rank's virtual clock by one ring over the tensors'
//     summed chunk bytes.
func TestRingFusedMatrix(t *testing.T) {
	link := perfmodel.LinkCost{Alpha: 1e-5, BytesPerSec: 1e9}
	wires := []struct {
		name string
		// orderFree: rounding does not depend on the order of calls.
		orderFree bool
		bare      func(rank int) collective.Wire
	}{
		{"fp32", true, func(int) collective.Wire { return nil }},
		{"fp16", true, func(int) collective.Wire { return half.NewScaler(512) }},
		{"q8", true, func(int) collective.Wire { return compress.NewQuant8(16, false, 0) }},
		{"q8-stochastic", false, func(rank int) collective.Wire { return compress.NewQuant8(16, true, 100+uint64(rank)) }},
	}
	if _, ok := withYields(wires[1].bare(0)).(collective.AddRounder); !ok {
		t.Fatal("half.Scaler no longer rounds on receive: the matrix would not reach that path")
	}
	if _, ok := withYields(wires[2].bare(0)).(collective.AddRounder); ok {
		t.Fatal("Quant8's scale depends on the slice it is handed; it must round on the sender")
	}

	for _, procs := range []int{1, 2, 8} {
		for _, g := range []int{1, 2, 3, 5, 7} {
			draw := rng.New(uint64(31*g + procs))
			sizes := []int{0, 1, g - 1, g, g + 1, 1000}
			seventeen := append([]int(nil), sizes...)
			for len(seventeen) < 17 {
				seventeen = append(seventeen, sizes[draw.Intn(len(sizes))])
			}
			for _, shapes := range [][]int{{}, {1000}, seventeen} {
				for _, w := range wires {
					for _, side := range []bool{false, true} {
						name := fmt.Sprintf("procs=%d/g=%d/parts=%d/%s/side=%v", procs, g, len(shapes), w.name, side)
						t.Run(name, func(t *testing.T) {
							defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
							lane := func(c *collective.Comm) *collective.Comm {
								if side {
									return c.Side()
								}
								return c
							}
							// Fresh per-rank instances for every run: Quant8
							// carries scratch, and a stream when stochastic.
							perRank := func(wrap func(collective.Wire) collective.Wire) []collective.Wire {
								ws := make([]collective.Wire, g)
								for r := range ws {
									ws[r] = wrap(w.bare(r))
								}
								return ws
							}

							want := rankTensors(g, shapes, 7)
							serialRing(want, perRank(func(w collective.Wire) collective.Wire { return w }))

							fused := rankTensors(g, shapes, 7)
							fc := collective.New(g)
							clocks := make([]*vclock.Clock, g)
							for r := range clocks {
								clocks[r] = new(vclock.Clock)
							}
							lane(fc).AttachCost(&collective.CostModel{Link: link, Clocks: clocks})
							fw := perRank(withYields)
							onRanks(g, func(rank int) { lane(fc).AllReduceParts(rank, fused[rank], fw[rank]) })
							sameTensors(t, "fused vs serial definition", fused, want)

							var chunkBytes int64
							for _, n := range shapes {
								per := (n + g - 1) / g
								if fw[0] == nil {
									chunkBytes += int64(4 * per)
								} else {
									chunkBytes += int64(fw[0].WireBytes(per))
								}
							}
							for r, clk := range clocks {
								if got, want := clk.Now(), link.RingAllReduceSecondsBytes(g, chunkBytes); got != want {
									t.Fatalf("rank %d virtual clock %v, want one ring over %d chunk bytes = %v", r, got, chunkBytes, want)
								}
							}
							for r := 0; r < g; r++ {
								if got := fc.RankStats(r).AllReduceCalls; got != int64(len(shapes)) {
									t.Fatalf("rank %d counts %d all-reduce calls for %d tensors", r, got, len(shapes))
								}
							}

							if !w.orderFree {
								return
							}
							perTensor := rankTensors(g, shapes, 7)
							pc := collective.New(g)
							pw := perRank(withYields)
							onRanks(g, func(rank int) {
								for _, x := range perTensor[rank] {
									lane(pc).AllReduce(rank, x, pw[rank])
								}
							})
							sameTensors(t, "fused vs one AllReduce per tensor", fused, perTensor)
							for r := 0; r < g; r++ {
								if fc.RankStats(r) != pc.RankStats(r) {
									t.Fatalf("rank %d stats: fused %+v, per tensor %+v", r, fc.RankStats(r), pc.RankStats(r))
								}
							}
						})
					}
				}
			}
		}
	}
}
