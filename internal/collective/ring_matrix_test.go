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

// matrixLink prices every lane of the matrix: round numbers, so a clock that
// misses a charge or takes one twice is off by a visible amount.
var matrixLink = perfmodel.LinkCost{Alpha: 1e-5, BytesPerSec: 1e9}

// schedule is the matrix's adversarial schedule: body runs once per
// GOMAXPROCS × cluster size, as subtest procs=P/g=G with GOMAXPROCS set for
// its duration and draw seeded from both, so a cell's random choices repeat.
func schedule(t *testing.T, body func(t *testing.T, g int, draw *rng.RNG)) {
	for _, procs := range []int{1, 2, 8} {
		for _, g := range []int{1, 2, 3, 5, 7} {
			t.Run(fmt.Sprintf("procs=%d/g=%d", procs, g), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				body(t, g, rng.New(uint64(31*g+procs)))
			})
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

	schedule(t, func(t *testing.T, g int, draw *rng.RNG) {
		sizes := []int{0, 1, g - 1, g, g + 1, 1000}
		seventeen := append([]int(nil), sizes...)
		for len(seventeen) < 17 {
			seventeen = append(seventeen, sizes[draw.Intn(len(sizes))])
		}
		for _, shapes := range [][]int{{}, {1000}, seventeen} {
			for _, w := range wires {
				for _, side := range []bool{false, true} {
					t.Run(fmt.Sprintf("parts=%d/%s/side=%v", len(shapes), w.name, side), func(t *testing.T) {
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
						lane(fc).AttachCost(&collective.CostModel{Link: matrixLink, Clocks: clocks})
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
							if got, want := clk.Now(), matrixLink.RingAllReduceSecondsBytes(g, chunkBytes); got != want {
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
	})
}

// yieldingDecoder gives the processor away before every payload a
// compressed all-reduce decodes, as yielding does in every wire call.
type yieldingDecoder struct{ collective.Decoder }

func (y yieldingDecoder) DecodeAdd(acc []float32, payload []byte) error {
	runtime.Gosched()
	return y.Decoder.DecodeAdd(acc, payload)
}

// boardCase is one blackboard collective of TestBlackboardMatrix on one lane,
// with its serial oracle: call issues it for one rank and returns what that
// rank received; want is what every rank must receive, stats what the call
// adds to each rank's counters, and seconds what it adds to the lane's
// clocks once it has brought them to their maximum.
type boardCase struct {
	call    func(c *collective.Comm, rank int) any
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

// gatherInts: every rank receives every rank's indices, in rank order, four
// bytes each on the wire.
func gatherInts(lens []int, seed uint64) boardCase {
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
	bytes, seconds := ringGather(sizes)
	return boardCase{
		call:    func(c *collective.Comm, rank int) any { return c.AllGatherInts(rank, ins[rank]) },
		want:    ins,
		stats:   collective.Stats{AllGatherCalls: 1, AllGatherBytes: bytes},
		seconds: seconds,
	}
}

// gatherFloats: every rank receives every rank's values as they crossed the
// sender's wire — rounded once by it, when there is one — in rank order.
func gatherFloats(fp16 bool) func(lens []int, seed uint64) boardCase {
	return func(lens []int, seed uint64) boardCase {
		draw := rng.New(seed)
		ins := make([][]float32, len(lens))
		want := make([][]float32, len(lens))
		wires := make([]collective.Wire, len(lens))
		sizes := make([]int64, len(lens))
		for r, n := range lens {
			ins[r] = make([]float32, n)
			for i := range ins[r] {
				ins[r][i] = float32(draw.Float64()*4 - 2)
			}
			want[r] = append([]float32{}, ins[r]...)
			sizes[r] = int64(4 * n)
			if fp16 {
				s := half.NewScaler(512)
				s.RoundTrip(want[r])
				wires[r] = withYields(s)
				sizes[r] = int64(s.WireBytes(n))
			}
		}
		bytes, seconds := ringGather(sizes)
		return boardCase{
			call:    func(c *collective.Comm, rank int) any { return c.AllGatherFloats(rank, ins[rank], wires[rank]) },
			want:    want,
			stats:   collective.Stats{AllGatherCalls: 1, AllGatherBytes: bytes},
			seconds: seconds,
		}
	}
}

// reduceCompressed: every rank ends with the top-k payloads of all ranks
// decoded in rank order into a zeroed tensor — whatever it held before — and
// the exchange is accounted and priced as the ring all-gather of the
// payloads. A rank with nothing to send passes an empty payload.
func reduceCompressed(lens []int, seed uint64) boardCase {
	const n = 64
	draw := rng.New(seed)
	payloads := make([][]byte, len(lens))
	sizes := make([]int64, len(lens))
	want := make([]float32, n)
	for r, k := range lens {
		if k > 0 {
			idx := make([]int, k)
			vals := make([]float32, k)
			for j := range idx {
				idx[j] = j * n / k
				vals[j] = float32(draw.Float64()*4 - 2)
			}
			payloads[r] = compress.EncodeTopK(nil, n, idx, vals, nil)
		}
		sizes[r] = int64(len(payloads[r]))
		if err := (compress.TopKDecoder{}).DecodeAdd(want, payloads[r]); err != nil {
			panic(err)
		}
	}
	bytes, seconds := ringGather(sizes)
	return boardCase{
		call: func(c *collective.Comm, rank int) any {
			x := make([]float32, n)
			for i := range x {
				x[i] = float32(rank + 1)
			}
			err := c.AllReduceCompressed(rank, x, payloads[rank], yieldingDecoder{compress.TopKDecoder{}})
			return []any{x, err}
		},
		want:    []any{want, nil},
		stats:   collective.Stats{AllReduceCalls: 1, AllReduceBytes: bytes},
		seconds: seconds,
	}
}

// agree: every rank learns whether every rank voted yes (here: has a
// nonzero length); the vote puts no bytes on the wire and costs no time
// beyond bringing the clocks together.
func agree(lens []int, _ uint64) boardCase {
	all := true
	for _, n := range lens {
		all = all && n > 0
	}
	return boardCase{
		call: func(c *collective.Comm, rank int) any { return c.AgreeAllOK(rank, lens[rank] > 0) },
		want: all,
	}
}

// TestBlackboardMatrix holds the blackboard collectives — both gathers, the
// compressed all-reduce and the control-plane vote — to their serial oracles
// on the ring matrix's schedule, with ragged per-rank lengths including 0,
// yields in every wire and decoder call, on the primary lane, the side lane
// or both at once (one goroutine per rank on each, with its own inputs and
// clocks). Every rank must receive the oracle's result and add the oracle's
// Stats on its lane, and the lane's clocks, started apart, must end at their
// maximum plus the oracle's seconds.
func TestBlackboardMatrix(t *testing.T) {
	ops := []struct {
		name  string
		build func(lens []int, seed uint64) boardCase
	}{
		{"gather-ints", gatherInts},
		{"gather-floats-fp32", gatherFloats(false)},
		{"gather-floats-fp16", gatherFloats(true)},
		{"compressed", reduceCompressed},
		{"agree", agree},
	}
	schedule(t, func(t *testing.T, g int, _ *rng.RNG) {
		lensAt := func(shift int) []int {
			sizes := []int{0, 1, g + 1, 40}
			lens := make([]int, g)
			for r := range lens {
				lens[r] = sizes[(r+shift)%len(sizes)]
			}
			return lens
		}
		for shift := 0; shift < 2; shift++ {
			for _, op := range ops {
				for _, lanes := range []string{"primary", "side", "both"} {
					t.Run(fmt.Sprintf("shift=%d/%s/%s", shift, op.name, lanes), func(t *testing.T) {
						c := collective.New(g)
						comms := map[string][]*collective.Comm{
							"primary": {c}, "side": {c.Side()}, "both": {c, c.Side()},
						}[lanes]
						cases := make([]boardCase, len(comms))
						clocks := make([][]*vclock.Clock, len(comms))
						start := make([]float64, len(comms))
						got := make([][]any, len(comms))
						for l, lc := range comms {
							cases[l] = op.build(lensAt(shift+l), uint64(97*shift+l))
							clocks[l] = make([]*vclock.Clock, g)
							for r := range clocks[l] {
								clocks[l][r] = new(vclock.Clock)
								clocks[l][r].Advance(float64((5*r+l)%g) * 1e-3)
							}
							start[l] = vclock.MaxNow(clocks[l])
							lc.AttachCost(&collective.CostModel{Link: matrixLink, Clocks: clocks[l]})
							got[l] = make([]any, g)
						}
						onRanks(len(comms)*g, func(i int) {
							l, rank := i/g, i%g
							got[l][rank] = cases[l].call(comms[l], rank)
						})

						var total collective.Stats
						for l, bc := range cases {
							want := fmt.Sprint(bc.want)
							for r := 0; r < g; r++ {
								if s := fmt.Sprint(got[l][r]); s != want {
									t.Fatalf("lane %d rank %d received %s, want %s", l, r, s, want)
								}
								if s := comms[l].LaneStats(r); s != bc.stats {
									t.Fatalf("lane %d rank %d stats %+v, want %+v", l, r, s, bc.stats)
								}
								if now, want := clocks[l][r].Now(), start[l]+bc.seconds; now != want {
									t.Fatalf("lane %d rank %d virtual clock %v, want %v", l, r, now, want)
								}
							}
							total.Add(bc.stats)
						}
						for r := 0; r < g; r++ {
							if s := c.RankStats(r); s != total {
								t.Fatalf("rank %d stats over both lanes %+v, want %+v", r, s, total)
							}
						}
					})
				}
			}
		}
	})
}
