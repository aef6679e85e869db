// Package collective implements the MPI-style collectives the paper's
// training workflow uses — ALLREDUCE for dense RNN gradients, ALLGATHER for
// embedding-layer exchanges — over in-process ranks (one goroutine per
// simulated GPU).
//
// AllReduce is a genuine ring all-reduce (Gibiansky-style, the "efficient
// implementations use a ring all-reduce technique" of §II-B): buffers are
// chunked, and each rank exchanges chunks with its neighbours over Go
// channels through a scatter-reduce phase followed by an all-gather phase.
// Per-rank traffic is therefore the real 2·(G−1)/G·bytes of the algorithm,
// measured, not modeled.
//
// The ring path is zero-copy and zero-allocation: each hop sends the chunk
// subslice itself over the channel (the ring's dependency chain guarantees
// the sender never rewrites a chunk before its receiver has consumed it),
// so there is no payload staging at all, guarded by testing.AllocsPerRun
// in the tests. Blackboard stash buffers for the gather/broadcast paths
// come from a communicator-wide sync.Pool arena and are recycled across
// operations. See also AllReduceAsync (async.go) for the bucketed,
// overlap-capable variant of the same ring.
//
// Gathers use a shared blackboard with two barriers; their per-rank traffic
// is accounted with the standard ring-allgather volume (G−1)/G·G·bytes.
//
// Every operation optionally runs with FP16 wire compression (§III-C): the
// payload is down-cast before each hop and up-cast after, halving measured
// wire bytes and applying real FP16 rounding to the values.
package collective

import (
	"fmt"
	"sync"
	"time"

	"zipflm/internal/telemetry"
	"zipflm/internal/tensor"
)

// Wire models a lossy wire precision for float payloads. Every synchronous
// collective (and every async bucket) optionally round-trips its payload
// through a Wire at the points the data crosses the simulated interconnect,
// and accounts wire bytes through WireBytes instead of assuming 4 bytes per
// element. half.Scaler (FP16 compression-scaling, §III-C) and
// compress.Quant8 (8-bit per-chunk stochastic quantization) both implement
// it; a nil Wire keeps FP32 on the wire.
//
// Callers must pass a nil interface — not a typed nil pointer wrapped in the
// interface — to mean "no compression".
type Wire interface {
	// RoundTrip applies one wire crossing to x in place: compress, then
	// decompress. It must be deterministic for a given receiver state.
	RoundTrip(x []float32)
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

// Comm coordinates collectives across g ranks. One Comm is shared by all
// rank goroutines; each method is called by every rank with its own rank id
// and returns only when the collective completes on that rank.
type Comm struct {
	g int

	// ring[r] is the channel rank (r-1+g)%g uses to send to rank r for
	// synchronous collectives. asyncRing is the same topology reserved for
	// the bucketed AllReduceAsync path, so an in-flight async bucket can
	// never interleave its hops with a synchronous ring operation. Hops
	// carry chunk subslices directly (zero-copy; see ringAllReduce).
	ring      []chan []float32
	asyncRing []chan []float32

	// buf / intBuf / byteBuf pool float32, int and byte blackboard stash
	// buffers, recycled once their collective completes, which keeps the
	// gather/broadcast paths allocation-free apart from the caller-owned
	// result copies.
	buf     sync.Pool
	intBuf  sync.Pool
	byteBuf sync.Pool

	// blackboard for gather/broadcast style ops. Entries are pooled
	// buffers owned by the writing rank; a rank recycles its previous
	// entry the next time it stashes (by then the prior collective's
	// closing barrier guarantees no reader still holds it).
	mu     sync.Mutex
	intsBB []*[]int
	f32BB  []*[]float32
	byteBB []*[]byte

	// barrier closes every synchronous collective; asyncBarrier closes
	// every async bucket (bucket k on one rank pairs with bucket k on
	// every other, since bucketing is deterministic). The closing barrier
	// is what makes the zero-copy ring sound: a rank's chunks are aliased
	// by in-flight messages until every rank's pass completes, so no
	// operation returns — and no caller may rewrite its buffer — before
	// then.
	barrier      *Barrier
	asyncBarrier *Barrier

	// stats counts synchronous collectives; asyncStats counts
	// AllReduceAsync buckets. They are kept apart so a phase can
	// snapshot-difference its own synchronous traffic (the §III-A
	// exchange cost) without racing against bucket runners that post at
	// arbitrary times; RankStats/MaxStats report the merged totals.
	stats      []Stats // per-rank
	asyncStats []Stats // per-rank

	// async bucket queues, one per rank (async.go).
	async       []asyncQueue
	bucketElems int

	// cost, when non-nil, prices every synchronous collective onto the
	// participating ranks' virtual clocks (cost.go). nil keeps the hot
	// paths on the exact pre-simulation code path.
	cost *CostModel

	// tel, when non-nil, posts per-operation calls/bytes/durations to a
	// telemetry registry (telemetry.go). Purely observational: nil keeps
	// every operation on the exact uninstrumented code path.
	tel *commTelemetry

	// trace, when non-nil, records one span per synchronous collective per
	// rank (cat "collective", tid = rank), stamped with wall time and the
	// rank's virtual clock — the per-op detail the critical-path analyzer
	// attributes wire time from. Purely observational, like tel.
	trace *telemetry.Tracer
}

// Stats tallies traffic a single rank has sent, by operation.
type Stats struct {
	AllReduceCalls int64
	AllReduceBytes int64
	AllGatherCalls int64
	AllGatherBytes int64
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
		g:            g,
		ring:         make([]chan []float32, g),
		asyncRing:    make([]chan []float32, g),
		intsBB:       make([]*[]int, g),
		f32BB:        make([]*[]float32, g),
		byteBB:       make([]*[]byte, g),
		barrier:      NewBarrier(g),
		asyncBarrier: NewBarrier(g),
		stats:        make([]Stats, g),
		asyncStats:   make([]Stats, g),
		async:        make([]asyncQueue, g),
		bucketElems:  DefaultBucketBytes / 4,
	}
	for i := range c.ring {
		c.ring[i] = make(chan []float32, 1)
		c.asyncRing[i] = make(chan []float32, 1)
	}
	return c
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.g }

// RankStats returns a copy of the traffic counters for one rank,
// synchronous and asynchronous traffic merged.
func (c *Comm) RankStats(rank int) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats[rank]
	s.Add(c.asyncStats[rank])
	return s
}

// SyncStats returns one rank's counters for synchronous collectives only,
// excluding AllReduceAsync buckets. Phase accounting (e.g. an exchange
// engine differencing its own wire cost) uses this so concurrently
// in-flight async buckets — which post their bytes at arbitrary times —
// cannot leak into the window.
func (c *Comm) SyncStats(rank int) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats[rank]
}

// MaxStats returns, per field, the maximum over ranks — the per-GPU traffic
// figure the paper's complexity bounds describe.
func (c *Comm) MaxStats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var m Stats
	for r := range c.stats {
		s := c.stats[r]
		s.Add(c.asyncStats[r])
		if s.AllReduceBytes > m.AllReduceBytes {
			m.AllReduceBytes = s.AllReduceBytes
		}
		if s.AllGatherBytes > m.AllGatherBytes {
			m.AllGatherBytes = s.AllGatherBytes
		}
		if s.BroadcastBytes > m.BroadcastBytes {
			m.BroadcastBytes = s.BroadcastBytes
		}
		if s.AllReduceCalls > m.AllReduceCalls {
			m.AllReduceCalls = s.AllReduceCalls
		}
		if s.AllGatherCalls > m.AllGatherCalls {
			m.AllGatherCalls = s.AllGatherCalls
		}
		if s.BroadcastCalls > m.BroadcastCalls {
			m.BroadcastCalls = s.BroadcastCalls
		}
	}
	return m
}

// Barrier blocks until every rank has reached it. With a cost model
// attached, the participating clocks synchronize to their maximum — the
// max-synchronization a real barrier imposes on wall-clock.
func (c *Comm) Barrier() {
	c.barrier.Wait()
	if cm := c.cost; cm != nil {
		// Barrier has no rank argument, so one charging rank is elected
		// per round; the charge itself (sync to max) is rank-independent,
		// keeping virtual times deterministic.
		if cm.elect(c.g) {
			cm.Charge(0)
		}
		if c.g > 1 {
			c.barrier.Wait()
		}
	}
}

// getBuf checks a float32 buffer of length n out of the arena, allocating
// only when the pool has nothing large enough (start-up, or a new high-water
// payload size).
func (c *Comm) getBuf(n int) *[]float32 {
	if p, ok := c.buf.Get().(*[]float32); ok && p != nil {
		if cap(*p) >= n {
			*p = (*p)[:n]
			return p
		}
	}
	s := make([]float32, n)
	return &s
}

// putBuf returns a buffer to the arena.
func (c *Comm) putBuf(p *[]float32) { c.buf.Put(p) }

// getIntBuf / putIntBuf are the int-payload arena used by the index
// blackboard.
func (c *Comm) getIntBuf(n int) *[]int {
	if p, ok := c.intBuf.Get().(*[]int); ok && p != nil {
		if cap(*p) >= n {
			*p = (*p)[:n]
			return p
		}
	}
	s := make([]int, n)
	return &s
}

func (c *Comm) putIntBuf(p *[]int) { c.intBuf.Put(p) }

// stashInts publishes a copy of local as rank's blackboard entry, recycling
// the rank's previous entry into the arena (safe: the previous collective's
// closing barrier means no reader still holds it).
func (c *Comm) stashInts(rank int, local []int) {
	p := c.getIntBuf(len(local))
	copy(*p, local)
	c.mu.Lock()
	if old := c.intsBB[rank]; old != nil {
		c.putIntBuf(old)
	}
	c.intsBB[rank] = p
	c.mu.Unlock()
}

// stashFloats is the float32 counterpart of stashInts; when wire is non-nil
// the stashed copy is FP16 round-tripped (the payload crosses the wire once
// in half precision).
func (c *Comm) stashFloats(rank int, local []float32, wire Wire) {
	p := c.getBuf(len(local))
	copy(*p, local)
	if wire != nil {
		wire.RoundTrip(*p)
	}
	c.mu.Lock()
	if old := c.f32BB[rank]; old != nil {
		c.putBuf(old)
	}
	c.f32BB[rank] = p
	c.mu.Unlock()
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

// addAllReduceStats records calls ring operations totalling bytes on rank.
func (c *Comm) addAllReduceStats(rank int, calls, bytes int64) {
	c.mu.Lock()
	st := &c.stats[rank]
	st.AllReduceCalls += calls
	st.AllReduceBytes += bytes
	c.mu.Unlock()
}

// ringAllReduce runs one ring all-reduce over the logical collection of
// parts, on the given channel set. Each part is chunked independently with
// the exact bounds the single-tensor path uses and each (hop, part) pair is
// exchanged as its own message, so both the reduced values (addition order,
// FP16 rounding points) and the byte accounting are bit-identical whether
// tensors travel alone through AllReduce or fused in an AllReduceAsync
// bucket. Returns the bytes this rank put on the wire.
//
// The exchange is zero-copy: hops send the chunk subslice itself, not a
// buffer copy, so the ring path performs zero allocations and no payload
// staging at all. Safety rests on the ring's own dependency chain: a chunk
// a rank has sent is never written by that rank again until the incoming
// message of a later hop — which transitively happens after the receiver
// consumed the sent chunk — so sender-side mutations and receiver-side
// reads can never overlap. (With FP16 the sender rounds its chunk in place
// *before* sending; the unrounded partial sum is dead at that point —
// every scatter-sent chunk is later overwritten wholesale by the
// all-gather phase.)
func (c *Comm) ringAllReduce(ring []chan []float32, rank int, parts [][]float32, wire Wire) int64 {
	g := c.g
	if g == 1 {
		return 0
	}
	next := (rank + 1) % g
	var bytes int64

	// Scatter-reduce: after step t, chunk (rank−t−1 mod G) holds t+2
	// ranks' partial sums on this rank.
	for step := 0; step < g-1; step++ {
		sendIdx := ((rank-step)%g + g) % g
		recvIdx := ((rank-step-1)%g + g) % g
		for pi, p := range parts {
			lo, hi := chunkRange(len(p), g, sendIdx)
			seg := p[lo:hi]
			if wire != nil {
				// Round in place: this partial sum is forwarded now and
				// overwritten by the all-gather phase later, so the
				// unrounded value is dead.
				wire.RoundTrip(seg)
			}
			bytes += wireSize(wire, hi-lo)
			ring[next] <- seg
			in := <-ring[rank]
			qlo, qhi := chunkRange(len(parts[pi]), g, recvIdx)
			dst := parts[pi][qlo:qhi]
			if len(in) != len(dst) {
				panic(fmt.Sprintf("collective: ring chunk mismatch %d != %d", len(in), len(dst)))
			}
			tensor.AddInPlace(dst, in)
		}
	}
	// After scatter-reduce this rank owns the fully reduced chunk
	// (rank+1) mod G. With a lossy wire every other rank receives the
	// owner's rounded bytes; round the owner's copy identically so all
	// ranks end bit-identical. The all-gather phase forwards those exact
	// bytes without re-rounding (one wire crossing per value), so replica
	// identity never depends on the wire format being idempotent.
	if wire != nil {
		own := (rank + 1) % g
		for _, p := range parts {
			lo, hi := chunkRange(len(p), g, own)
			wire.RoundTrip(p[lo:hi])
		}
	}
	// All-gather: circulate the fully reduced chunks. Payloads were
	// wire-rounded once by their owning rank above, so no further rounding
	// happens here.
	for step := 0; step < g-1; step++ {
		sendIdx := ((rank-step+1)%g + g) % g
		recvIdx := ((rank-step)%g + g) % g
		for pi, p := range parts {
			lo, hi := chunkRange(len(p), g, sendIdx)
			bytes += wireSize(wire, hi-lo)
			ring[next] <- p[lo:hi]
			in := <-ring[rank]
			qlo, qhi := chunkRange(len(parts[pi]), g, recvIdx)
			if len(in) != qhi-qlo {
				panic(fmt.Sprintf("collective: ring chunk mismatch %d != %d", len(in), qhi-qlo))
			}
			copy(parts[pi][qlo:qhi], in)
		}
	}
	return bytes
}

// AllReduce sums x elementwise across all ranks; on return every rank's x
// holds the global sum. wire == nil keeps FP32 on the wire; a non-nil Wire
// (FP16 compression-scaling of §III-C, 8-bit quantization, …) is applied to
// every hop: each scatter-reduce hop rounds the partial sum it forwards (so
// a chunk's value is re-rounded up to G−1 times, by different ranks, and
// lossy-wire error compounds with G exactly as on real fabrics), and each
// fully reduced chunk is rounded once more by its owning rank before the
// all-gather forwards those bytes verbatim. Replica identity rests on that
// final owner round plus verbatim forwarding — not on any exactly-once
// property — which is also why per-rank Wire *instances* may differ (e.g.
// rank-seeded stochastic quantizers) as long as the format matches. All
// ranks must pass equal-length slices.
//
// The implementation is a ring all-reduce: G−1 scatter-reduce steps then
// G−1 all-gather steps, each moving one 1/G-sized chunk to the next rank —
// zero-copy and zero-allocation. The closing barrier guarantees that on
// return no peer still reads this rank's buffer, so the caller may mutate
// x immediately.
func (c *Comm) AllReduce(rank int, x []float32, wire Wire) {
	var t0 time.Time
	var v0 float64
	if c.tel != nil || c.trace != nil {
		t0 = time.Now()
		v0 = c.clockNow(rank)
	}
	var parts [1][]float32
	parts[0] = x
	bytes := c.ringAllReduce(c.ring, rank, parts[:], wire)
	if c.g > 1 {
		c.barrier.Wait()
	}
	c.charge(rank, func(cm *CostModel) {
		chunk := (len(x) + c.g - 1) / c.g
		cm.Charge(cm.Link.RingAllReduceSecondsBytes(c.g, wireSize(wire, chunk)))
	})
	c.addAllReduceStats(rank, 1, bytes)
	if c.tel != nil {
		c.tel.record("allreduce", wireLabel(wire), 1, bytes, int64(time.Since(t0)))
	}
	c.traceOp("allreduce", rank, t0, v0)
}

// AllGatherInts gathers each rank's (possibly different-length) int slice;
// every rank receives the per-rank slices in rank order. This is the cheap
// Θ(G·K) index gather of §III-A step 3. The returned inner slices are
// copies owned by the caller (the blackboard stash itself is pooled).
func (c *Comm) AllGatherInts(rank int, local []int) [][]int {
	var t0 time.Time
	var v0 float64
	if c.tel != nil || c.trace != nil {
		t0 = time.Now()
		v0 = c.clockNow(rank)
	}
	c.stashInts(rank, local)
	c.barrier.Wait()

	out := make([][]int, c.g)
	var totalElems, maxElems int
	c.mu.Lock()
	for r, s := range c.intsBB {
		var src []int
		if s != nil {
			src = *s
		}
		cp := make([]int, len(src))
		copy(cp, src)
		out[r] = cp
		totalElems += len(src)
		if len(src) > maxElems {
			maxElems = len(src)
		}
	}
	// Ring all-gather volume per rank: (G−1)/G of the total payload,
	// with indices on the wire as int32 (4 bytes) as real stacks do.
	bytes := int64(4*totalElems) * int64(c.g-1) / int64(c.g)
	c.stats[rank].AllGatherCalls++
	c.stats[rank].AllGatherBytes += bytes
	c.mu.Unlock()
	c.barrier.Wait()
	c.charge(rank, func(cm *CostModel) {
		cm.Charge(cm.Link.RingAllGatherSeconds(c.g, int64(4*maxElems)))
	})
	if c.tel != nil {
		c.tel.record("allgather_ints", "int32", 1, bytes, int64(time.Since(t0)))
	}
	c.traceOp("allgather_ints", rank, t0, v0)
	return out
}

// AllGatherFloats gathers each rank's float32 slice to every rank, FP32 or
// FP16 on the wire. This is the expensive baseline exchange of §II-B: the
// result materializes G dense gradient blocks on every rank.
func (c *Comm) AllGatherFloats(rank int, local []float32, wire Wire) [][]float32 {
	var t0 time.Time
	var v0 float64
	if c.tel != nil || c.trace != nil {
		t0 = time.Now()
		v0 = c.clockNow(rank)
	}
	c.stashFloats(rank, local, wire)
	c.barrier.Wait()

	out := make([][]float32, c.g)
	var totalBytes, maxBytes int64
	c.mu.Lock()
	for r, s := range c.f32BB {
		var src []float32
		if s != nil {
			src = *s
		}
		cp := make([]float32, len(src))
		copy(cp, src)
		out[r] = cp
		b := wireSize(wire, len(src))
		totalBytes += b
		if b > maxBytes {
			maxBytes = b
		}
	}
	bytes := totalBytes * int64(c.g-1) / int64(c.g)
	c.stats[rank].AllGatherCalls++
	c.stats[rank].AllGatherBytes += bytes
	c.mu.Unlock()
	c.barrier.Wait()
	c.charge(rank, func(cm *CostModel) {
		cm.Charge(cm.Link.RingAllGatherSeconds(c.g, maxBytes))
	})
	if c.tel != nil {
		c.tel.record("allgather_floats", wireLabel(wire), 1, bytes, int64(time.Since(t0)))
	}
	c.traceOp("allgather_floats", rank, t0, v0)
	return out
}

// Broadcast distributes root's buffer to every rank (into each rank's x,
// which must have the root's length).
func (c *Comm) Broadcast(rank, root int, x []float32) {
	var t0 time.Time
	var v0 float64
	if c.tel != nil || c.trace != nil {
		t0 = time.Now()
		v0 = c.clockNow(rank)
	}
	if rank == root {
		c.stashFloats(root, x, nil)
	}
	c.barrier.Wait()
	c.mu.Lock()
	var src []float32
	if p := c.f32BB[root]; p != nil {
		src = *p
	}
	c.mu.Unlock()
	if len(src) != len(x) {
		panic(fmt.Sprintf("collective: Broadcast length mismatch on rank %d: %d != %d", rank, len(x), len(src)))
	}
	if rank != root {
		copy(x, src)
	}
	c.mu.Lock()
	c.stats[rank].BroadcastCalls++
	if rank == root {
		// Tree broadcast: root sends ~1 copy per subtree; account
		// the standard log-tree per-rank volume of one payload.
		c.stats[rank].BroadcastBytes += int64(4 * len(x))
	}
	c.mu.Unlock()
	c.barrier.Wait()
	c.charge(rank, func(cm *CostModel) {
		cm.Charge(cm.Link.TreeBroadcastSeconds(c.g, int64(4*len(x))))
	})
	if c.tel != nil {
		var bytes int64
		if rank == root {
			bytes = int64(4 * len(x))
		}
		c.tel.record("broadcast", "fp32", 1, bytes, int64(time.Since(t0)))
	}
	c.traceOp("broadcast", rank, t0, v0)
}

// AgreeAllOK is a control-plane consensus: every rank reports a boolean and
// all ranks learn whether every rank said true. Exchange engines use it to
// fail collectively when any rank cannot allocate scratch memory, so no
// rank blocks in a data collective its peers abandoned. Control-plane
// traffic is excluded from the data-plane byte accounting.
func (c *Comm) AgreeAllOK(rank int, ok bool) bool {
	var vote [1]int
	if ok {
		vote[0] = 1
	}
	c.stashInts(rank, vote[:])
	c.barrier.Wait()
	all := true
	c.mu.Lock()
	for _, s := range c.intsBB {
		if s == nil || len(*s) != 1 || (*s)[0] == 0 {
			all = false
		}
	}
	c.mu.Unlock()
	c.barrier.Wait()
	// Control-plane consensus: excluded from byte accounting, but it is a
	// synchronization point, so clocks max-sync (zero-byte charge).
	c.charge(rank, func(cm *CostModel) { cm.Charge(0) })
	return all
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
