// Package collective implements the MPI-style collectives the paper's
// training workflow uses — ALLREDUCE for dense RNN gradients, ALLGATHER for
// embedding-layer exchanges — for G simulated ranks in one process.
//
// Every collective is called once for the whole group, from one goroutine,
// with every rank's buffers (the …Ranks methods). AllReduceRanks is the ring
// all-reduce of §II-B ("efficient implementations use a ring all-reduce
// technique"; Gibiansky's formulation): buffers are chunked, a
// scatter-reduce phase passes each chunk around the ring adding as it goes,
// and an all-gather phase hands every rank the owners' reduced chunks. The
// ring is executed, not modeled, but once: the executor makes exactly the
// additions, the wire roundings and the byte counts G ring ranks would make,
// so per-rank traffic is the algorithm's real 2·(G−1)/G·bytes. The ring is
// G independent per-chunk pipelines, and its chunk sets are spread over the
// worker pool that Comm.AttachBackend lends (the trainer's has one worker per
// core), bit for bit the same. What no rank reads is skipped: the sum is
// written to rank 0's tensors only (the trainer updates the weights every
// rank shares from them). The gathers are accounted, not copied: the caller
// already holds every rank's payload, so the collective applies the wire to
// it and posts the standard ring all-gather volume, (G−1)/G of the payloads'
// total, per rank.
//
// Callers that still run one goroutine per rank use the per-rank adapter
// AllReduce, or build their own on the primitive beneath it, Rendezvous:
// every rank posts its arguments, rank 0 runs the batched call for the
// group, and every rank gets its result.
//
// Every operation optionally runs with one lossy Wire for the whole group —
// FP16 compression-scaling (§III-C): the payload crosses it once per hop,
// shrinking measured wire bytes and applying the format's real rounding to
// the values on the receiving rank as it accumulates.
package collective

import (
	"fmt"
	"sync"
	"time"

	"zipflm/internal/telemetry"
	"zipflm/internal/tensor"
)

// Wire models a lossy wire precision for float payloads. Every float
// collective optionally round-trips its payload through a Wire at the points
// the data crosses the simulated interconnect, and accounts wire bytes
// through WireBytes instead of assuming 4 bytes per element. half.Scaler
// (FP16 compression-scaling, §III-C) implements it; a nil Wire keeps FP32 on
// the wire.
//
// A Wire is stateless and element-pure: what it makes of an element depends
// on that element alone — not on the slice's bounds, its neighbours or
// earlier calls — so it does not matter which rank applies it, in which
// order, or on which goroutine. An all-reduce calls it from several
// goroutines at once, on disjoint chunks, and a group shares one Wire: the
// per-rank adapters panic when the ranks post different ones.
//
// Callers must pass a nil interface — not a typed nil pointer wrapped in the
// interface — to mean "no compression".
type Wire interface {
	// RoundTrip applies one wire crossing to x in place: compress, then
	// decompress.
	RoundTrip(x []float32)
	// AddRoundTrip adds to dst, bit for bit, what RoundTrip would make of a
	// copy of src (dst[i] first in the add); src, as long as dst, is not
	// written. It is how the receiver of a scatter-reduce hop consumes a
	// chunk as it accumulates, as a reduce kernel consumes a received FP16
	// buffer: one pass over the chunk instead of two.
	AddRoundTrip(dst, src []float32)
	// WireBytes reports how many bytes n elements occupy on the wire,
	// including any side data (scales, headers) the format carries.
	WireBytes(n int) int
}

// wireSize returns the wire footprint of n float32 elements under wire
// (4 bytes per element when wire is nil).
func wireSize(wire Wire, n int) int64 {
	if wire == nil {
		return int64(4 * n)
	}
	return int64(wire.WireBytes(n))
}

// Comm coordinates collectives across g ranks. The batched methods act for
// every rank in one call; calls must not run concurrently. The per-rank
// adapters (methods taking a rank id) are called by every rank, each from
// its own goroutine, and return only when the collective completes; a
// rank's adapter calls must be matched by every other rank in the same
// order.
type Comm struct {
	g int

	// mu guards the Stats counters.
	mu sync.Mutex

	// trace, when non-nil, records one span per collective operation (cat
	// "collective", tid 0), stamped with wall time and the cost model's
	// clock (telemetry.go). Purely observational: nil keeps every
	// operation on the exact untraced code path.
	trace *telemetry.Tracer

	// be, when non-nil, runs a ring's chunk sets on its workers (see
	// reduce); nil runs them on the caller.
	be tensor.Backend

	// posts are Rendezvous' slots, one per rank, and fault what the last
	// rendezvous' run panicked with (nil when it returned).
	posts []any
	fault any
	// xs, parts and wires are AllReduce's arguments as its ranks post them:
	// parts[r] is the window xs[r:r+1], so posting allocates nothing.
	xs    [][]float32
	parts [][][]float32
	wires []Wire

	// sent is a batched call's per-rank scratch: the bytes each rank puts
	// on the wire.
	sent []int64

	// ring is the chunk-major ring's call, which runChunks — chunkSet, bound
	// once so a call allocates nothing — reads from every worker.
	ring      chunkJob
	runChunks func(set int)

	// barrier brackets a rendezvous: rank 0 reads no post before every rank
	// has made it, and no rank returns — so no caller rewrites its buffer —
	// before the batched call has completed.
	barrier *Barrier

	// stats counts each rank's traffic.
	stats []Stats

	// cost, when non-nil, prices every collective onto its virtual clock
	// (cost.go). nil keeps the hot paths on the exact pre-simulation code
	// path.
	cost *CostModel
}

// Stats tallies traffic a single rank has sent, by operation.
type Stats struct {
	AllReduceCalls int64
	AllReduceBytes int64
	AllGatherCalls int64
	AllGatherBytes int64
	// No collective broadcasts; benchmark/train.go still sums BroadcastCalls.
	BroadcastCalls int64
	BroadcastBytes int64
}

// Total returns bytes across all operation types.
func (s Stats) Total() int64 { return s.AllReduceBytes + s.AllGatherBytes + s.BroadcastBytes }

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.AllReduceCalls += o.AllReduceCalls
	s.AllReduceBytes += o.AllReduceBytes
	s.AllGatherCalls += o.AllGatherCalls
	s.AllGatherBytes += o.AllGatherBytes
	s.BroadcastCalls += o.BroadcastCalls
	s.BroadcastBytes += o.BroadcastBytes
}

// Sub returns s minus o (for snapshot differencing around a phase).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		AllReduceCalls: s.AllReduceCalls - o.AllReduceCalls,
		AllReduceBytes: s.AllReduceBytes - o.AllReduceBytes,
		AllGatherCalls: s.AllGatherCalls - o.AllGatherCalls,
		AllGatherBytes: s.AllGatherBytes - o.AllGatherBytes,
		BroadcastCalls: s.BroadcastCalls - o.BroadcastCalls,
		BroadcastBytes: s.BroadcastBytes - o.BroadcastBytes,
	}
}

// New returns a communicator for g ranks.
func New(g int) *Comm {
	if g <= 0 {
		panic("collective: need at least one rank")
	}
	c := &Comm{
		g:       g,
		posts:   make([]any, g),
		xs:      make([][]float32, g),
		parts:   make([][][]float32, g),
		wires:   make([]Wire, g),
		sent:    make([]int64, g),
		barrier: NewBarrier(g),
		stats:   make([]Stats, g),
	}
	for r := range c.parts {
		c.parts[r] = c.xs[r : r+1 : r+1]
	}
	c.runChunks = c.chunkSet
	return c
}

// AttachBackend spreads the chunks of every all-reduce over be's workers
// (see reduce). The bits do not depend on it. Call it before the first
// collective; nil runs every chunk on the caller.
func (c *Comm) AttachBackend(be tensor.Backend) { c.be = be }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.g }

// RankStats returns a copy of the traffic counters for one rank.
func (c *Comm) RankStats(rank int) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats[rank]
}

// MaxStats returns, per field, the maximum over ranks of RankStats — the
// per-GPU traffic figure the paper's complexity bounds describe.
func (c *Comm) MaxStats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var m Stats
	for _, s := range c.stats {
		m.AllReduceCalls = max(m.AllReduceCalls, s.AllReduceCalls)
		m.AllReduceBytes = max(m.AllReduceBytes, s.AllReduceBytes)
		m.AllGatherCalls = max(m.AllGatherCalls, s.AllGatherCalls)
		m.AllGatherBytes = max(m.AllGatherBytes, s.AllGatherBytes)
		m.BroadcastCalls = max(m.BroadcastCalls, s.BroadcastCalls)
		m.BroadcastBytes = max(m.BroadcastBytes, s.BroadcastBytes)
	}
	return m
}

// chunkRange returns the [lo,hi) bounds of chunk i when n elements are split
// into g nearly equal contiguous chunks (the first n%g chunks are one
// element longer). Pure arithmetic — no allocation on the ring hot path.
func chunkRange(n, g, i int) (lo, hi int) {
	base, rem := n/g, n%g
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// checkRanks panics unless n, the length of a batched call's per-rank
// argument, is the communicator size.
func (c *Comm) checkRanks(what string, n int) {
	if n != c.g {
		panic(fmt.Sprintf("collective: %d %s for %d ranks", n, what, c.g))
	}
}

// checkShapes panics, before anything is read or written, unless parts
// holds one part list per rank and every rank's part list has rank 0's
// length and part lengths. The message names the first rank and part that
// differ.
func (c *Comm) checkShapes(parts [][][]float32) {
	c.checkRanks("part lists", len(parts))
	for r := 1; r < c.g; r++ {
		if len(parts[r]) != len(parts[0]) {
			panic(fmt.Sprintf("collective: rank %d passes %d parts, rank 0 passes %d", r, len(parts[r]), len(parts[0])))
		}
		for i, p := range parts[r] {
			if len(p) != len(parts[0][i]) {
				panic(fmt.Sprintf("collective: rank %d part %d has %d elements, rank 0's has %d", r, i, len(p), len(parts[0][i])))
			}
		}
	}
}

// checkWires panics unless every rank posted rank 0's Wire (the same
// interface value), naming the first rank that did not: a group shares one
// wire.
func checkWires(wires []Wire) {
	for r, w := range wires {
		if w != wires[0] {
			panic(fmt.Sprintf("collective: rank %d posts another wire (%v) than rank 0 (%v)", r, w, wires[0]))
		}
	}
}

// reduce executes one ring all-reduce over every rank's part list and leaves
// the sum in rank 0's tensors — in every rank's when everyRank is set.
// c.sent[r] receives the bytes rank r puts on the wire.
//
// Scatter-reduce: at step s every rank r sends chunk r−s of each part —
// parts ascending, each chunked with the bounds a lone tensor gets — to rank
// r+1, which adds it into its own copy of that chunk, rounding it on the
// wire as it adds. After G−1 steps rank r owns the reduced chunk r+1 and
// rounds it once more, so every rank that receives the owner's bytes holds
// the same bits.
//
// All-gather: a ring forwards the owners' chunks verbatim, so the executor
// counts those hops' bytes and copies each owner's chunk straight to where
// it is needed — rank 0, or every rank.
//
// A chunk's hops touch no other chunk's elements, so the ring is G
// independent pipelines, and reduce runs it chunk-major: chunk i of every
// part takes its G−1 scatter hops and is delivered by its owner before chunk
// i+1 starts. Every element sees the additions and roundings a ring would
// make, in the ring's order, whether tensors travel alone or in one list.
// The G chunks are dealt to min(tensor.Fanout, G) contiguous chunk sets on
// the attached backend, so below tensor.ElementwiseMinWork elements they all
// run on the caller.
func (c *Comm) reduce(parts [][][]float32, wire Wire, everyRank bool) {
	g := c.g
	clear(c.sent)
	if g == 1 {
		return
	}
	n := 0
	for _, p := range parts[0] {
		n += len(p)
		// Rank r sends chunk r−s at scatter step s, and chunk r+1−s — the
		// owners' — at all-gather step s.
		for r := range c.sent {
			for s := 0; s < g-1; s++ {
				lo, hi := chunkRange(len(p), g, (r-s+g)%g)
				c.sent[r] += wireSize(wire, hi-lo)
				lo, hi = chunkRange(len(p), g, (r+1-s+g)%g)
				c.sent[r] += wireSize(wire, hi-lo)
			}
		}
	}
	targets := 1
	if everyRank {
		targets = g
	}
	c.ring = chunkJob{parts, wire, targets, min(tensor.Fanout(c.be, n), g)}
	if c.ring.sets > 1 {
		c.be.For(c.ring.sets, c.runChunks)
	} else {
		c.chunkSet(0)
	}
	c.ring = chunkJob{}
}

// chunkJob is one chunk-major ring: reduce's arguments and the number of
// chunk sets the G chunks are dealt to.
type chunkJob struct {
	parts         [][][]float32
	wire          Wire
	targets, sets int
}

// chunkSet runs chunk set j of c.ring: chunks [j·G/sets, (j+1)·G/sets) of
// every part, each through its G−1 scatter-reduce hops — chunk i leaves rank
// i at step 0 — and then its owner's delivery. Sets touch disjoint elements,
// so they may run concurrently.
func (c *Comm) chunkSet(j int) {
	job, g := &c.ring, c.g
	for i := j * g / job.sets; i < (j+1)*g/job.sets; i++ {
		for pi := range job.parts[0] {
			for s := 0; s < g-1; s++ {
				c.accumulate(job.parts, job.wire, (i+s)%g, pi, i)
			}
			c.deliver(job.parts, job.wire, (i-1+g)%g, pi, job.targets)
		}
	}
}

// accumulate is one scatter-reduce hop: chunk i of part pi goes from rank
// src to its successor, which adds it to its own, rounded on the wire.
func (c *Comm) accumulate(parts [][][]float32, wire Wire, src, pi, i int) {
	p, q := parts[src][pi], parts[(src+1)%c.g][pi]
	lo, hi := chunkRange(len(p), c.g, i)
	if wire != nil {
		wire.AddRoundTrip(q[lo:hi], p[lo:hi])
	} else {
		tensor.AddInPlace(q[lo:hi], p[lo:hi])
	}
}

// deliver rounds owner's reduced chunk of part pi on the wire and copies it
// to ranks 0…targets−1.
func (c *Comm) deliver(parts [][][]float32, wire Wire, owner, pi, targets int) {
	p := parts[owner][pi]
	lo, hi := chunkRange(len(p), c.g, (owner+1)%c.g)
	if wire != nil {
		wire.RoundTrip(p[lo:hi])
	}
	for r := 0; r < targets; r++ {
		if r != owner {
			copy(parts[r][pi][lo:hi], p[lo:hi])
		}
	}
}

// AllReduceRanks sums every rank's tensors elementwise into rank 0's: it is
// one all-reduce called once for the whole group, parts[r] being rank r's
// part list. Every rank must pass the same sequence of part lengths; a
// mismatch panics, naming the rank and the part, before any buffer is read
// or written. On return rank 0's tensors hold the sum; the other ranks'
// tensors hold what the scatter-reduce left there (partial sums, rounded or
// not) — scratch, as far as the caller is concerned.
//
// A nil wire keeps FP32 on the wire; a non-nil one (FP16
// compression-scaling of §III-C) is applied to every hop: each
// scatter-reduce hop rounds the partial sum it carries on the receiver as it
// adds (so a chunk's value is re-rounded up to G−1 times, and lossy-wire
// error compounds with G exactly as on real fabrics), and each fully reduced
// chunk is rounded once more by its owning rank.
//
// Each rank's Stats count len(parts[r]) calls and the bytes that rank sends,
// the tracer gets one operation (one span on tid 0, on the cost model's
// clock), and the cost model prices one ring over the tensors' summed chunk
// bytes — so a list costs the ring's latency once, not once per tensor.
func (c *Comm) AllReduceRanks(parts [][][]float32, wire Wire) {
	c.allReduce(parts, wire, false)
}

// allReduce is every all-reduce: it checks the shapes, executes the ring
// (see reduce), and charges, counts and observes it for every rank.
func (c *Comm) allReduce(parts [][][]float32, wire Wire, everyRank bool) {
	c.checkShapes(parts)
	t0, v0 := c.opStartRanks()
	c.reduce(parts, wire, everyRank)
	n := int64(len(parts[0]))
	if cm := c.cost; cm != nil {
		var chunkBytes int64
		for _, p := range parts[0] {
			chunkBytes += wireSize(wire, (len(p)+c.g-1)/c.g)
		}
		cm.Clock.Advance(cm.Link.RingAllReduceSeconds(c.g, chunkBytes))
	}
	c.mu.Lock()
	for r := range c.stats {
		c.stats[r].AllReduceCalls += n
		c.stats[r].AllReduceBytes += c.sent[r]
	}
	c.mu.Unlock()
	c.opEnd("allreduce", t0, v0)
}

// AllGatherIntsRanks accounts the ring all-gather of every rank's index
// slice, payloads[r] being rank r's — the cheap Θ(G·K) index gather of
// §III-A step 3, with indices on the wire as int32 (4 bytes) as real stacks
// do. The caller already holds every payload, so nothing is copied; what G
// ranks gathering them would post is posted (see ringGather).
func (c *Comm) AllGatherIntsRanks(payloads [][]int) {
	c.checkRanks("payloads", len(payloads))
	t0, v0 := c.opStartRanks()
	for r, p := range payloads {
		c.sent[r] = int64(4 * len(p))
	}
	c.ringGather(t0, v0, "allgather_ints")
}

// AllGatherFloatsRanks is the float32 counterpart of AllGatherIntsRanks —
// the expensive baseline exchange of §II-B, whose result materializes G
// dense gradient blocks on every rank. Each payload crosses the wire once:
// a non-nil wire rounds every payload in place, so pass copies of what must
// stay unrounded.
func (c *Comm) AllGatherFloatsRanks(payloads [][]float32, wire Wire) {
	c.checkRanks("payloads", len(payloads))
	t0, v0 := c.opStartRanks()
	for r, p := range payloads {
		if wire != nil {
			wire.RoundTrip(p)
		}
		c.sent[r] = wireSize(wire, len(p))
	}
	c.ringGather(t0, v0, "allgather_floats")
}

// ringGather posts a ring all-gather of payloads of wire sizes c.sent for
// every rank: one call at (G−1)/G of their total on each rank's AllGather
// counters, one ring priced at the largest payload, and op to the tracer.
func (c *Comm) ringGather(t0 time.Time, v0 float64, op string) {
	var total, largest int64
	for _, b := range c.sent {
		total += b
		largest = max(largest, b)
	}
	bytes := total * int64(c.g-1) / int64(c.g)
	if cm := c.cost; cm != nil {
		cm.Clock.Advance(cm.Link.RingAllGatherSeconds(c.g, largest))
	}
	c.mu.Lock()
	for r := range c.stats {
		c.stats[r].AllGatherCalls++
		c.stats[r].AllGatherBytes += bytes
	}
	c.mu.Unlock()
	c.opEnd(op, t0, v0)
}

// AgreeRanks is a control-plane consensus over the group's votes, ok[r]
// being rank r's: it reports whether every rank said true. Exchange engines
// use it to fail collectively when any rank cannot allocate scratch memory.
// Control-plane traffic is excluded from the byte accounting and costs no
// virtual time: the ranks of a bulk-synchronous step reach the vote
// together.
func (c *Comm) AgreeRanks(ok []bool) bool {
	c.checkRanks("votes", len(ok))
	for _, v := range ok {
		if !v {
			return false
		}
	}
	return true
}

// Rendezvous is the one adapter between callers that run one goroutine per
// rank and the batched calls: every rank calls it with its post — its
// arguments, and room for its results — and once all G have, rank 0 runs
// run(posts), posts[r] being rank r's post. No rank returns before run has,
// so results run writes into the posts are every rank's to read. If run
// panics, every rank panics with its value once all G have been released,
// so a refused call stops the group instead of stranding ranks 1…G−1. Calls
// are matched in order, like any collective's; AllReduce and
// core.Exchanger's Exchange are built on it.
func (c *Comm) Rendezvous(rank int, post any, run func(posts []any)) {
	c.posts[rank] = post
	c.barrier.Wait()
	if rank == 0 {
		c.runPosts(run)
	}
	c.barrier.Wait()
	if f := c.fault; f != nil {
		panic(f)
	}
}

// runPosts runs run over the posts and clears them, keeping what run panics
// with in c.fault for every rank to raise.
func (c *Comm) runPosts(run func(posts []any)) {
	defer func() { c.fault = recover() }()
	defer clear(c.posts)
	run(c.posts)
}

// AllReduce is the per-rank adapter of AllReduceRanks for callers that run
// one goroutine per rank: every rank passes its x and the group's wire, and
// on return every rank's x holds the global sum — the owners' reduced chunks
// are copied to every rank, as the ring's all-gather phase would. Values,
// Stats, trace spans and clock charges are AllReduceRanks'. Ranks
// that pass different wires, or tensors of different lengths, make every
// rank panic before any buffer is read or written.
func (c *Comm) AllReduce(rank int, x []float32, wire Wire) {
	c.xs[rank], c.wires[rank] = x, wire
	c.Rendezvous(rank, nil, func([]any) {
		checkWires(c.wires)
		c.allReduce(c.parts, c.wires[0], true)
	})
}

// Barrier is a reusable counting barrier for a fixed number of parties.
type Barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
}

// NewBarrier returns a barrier for n parties.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("collective: barrier needs at least one party")
	}
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all n parties have called Wait, then releases them all.
// The barrier is reusable across generations.
func (b *Barrier) Wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
