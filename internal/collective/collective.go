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
// A hop is one message whatever the call carries: the sender hands over the
// list of tensors being reduced (AllReduce is the list of one) and the
// receiver reads the hop's chunk of each where it lies, so the ring pays its
// latency — here a goroutine rendezvous — 2·(G−1) times per call, not per
// tensor, as the cost model charges it. The path is zero-copy and
// zero-allocation (a sender never rewrites a chunk before its receiver has
// consumed it; see ringAllReduce), guarded by testing.AllocsPerRun. Blackboard
// stash buffers for the gather/broadcast paths come from a sync.Pool arena
// and are recycled across operations.
//
// Gathers use a shared blackboard with two barriers; their per-rank traffic
// is accounted with the standard ring-allgather volume (G−1)/G·G·bytes.
//
// A communicator has two lanes — two complete sets of ring channels,
// barrier, blackboards, counters and optional cost model. Comm.Side returns
// the same communicator on its second lane: every collective runs there
// unchanged and concurrently with whatever the primary lane is doing, which
// is all that overlapping communication with compute needs (the trainer
// issues the dense reductions from a per-rank worker on the side lane while
// the rank goroutines keep backpropagating and run the sparse exchange on
// the primary).
//
// Every operation optionally runs with a lossy Wire — FP16 (§III-C) or
// 8-bit quantization: the payload crosses it once per hop, shrinking
// measured wire bytes and applying the format's real rounding to the values
// (on the receiver as it accumulates for an AddRounder, else on the sender).
package collective

import (
	"fmt"
	"sync"

	"zipflm/internal/telemetry"
	"zipflm/internal/tensor"
)

// Wire models a lossy wire precision for float payloads. Every float
// collective optionally round-trips its payload through a Wire at the points
// the data crosses the simulated interconnect, and accounts wire bytes
// through WireBytes instead of assuming 4 bytes per element. half.Scaler
// (FP16 compression-scaling, §III-C) and compress.Quant8 (8-bit per-chunk
// stochastic quantization) both implement it; a nil Wire keeps FP32 on the
// wire.
//
// A rank's Wire is called by that rank's goroutine only, on what the rank
// puts on the wire: the chunk a scatter-reduce hop forwards, the reduced
// chunk it owns, a gather's stash. A Wire may carry state (a stochastic
// rounding stream), so which rank rounds, in which order, is part of the
// result.
//
// Callers must pass a nil interface — not a typed nil pointer wrapped in the
// interface — to mean "no compression".
type Wire interface {
	// RoundTrip applies one wire crossing to x in place: compress, then
	// decompress. It must be deterministic given the wire's own state and
	// the sequence of calls made on it so far.
	RoundTrip(x []float32)
	// WireBytes reports how many bytes n elements occupy on the wire,
	// including any side data (scales, headers) the format carries.
	WireBytes(n int) int
}

// AddRounder is optionally implemented by a Wire whose RoundTrip is a pure
// function of each element — no state, no dependence on the slice's bounds —
// so it does not matter which rank applies it. The receiver of a
// scatter-reduce hop then rounds while it accumulates, as a reduce kernel
// consumes a received FP16 buffer: one pass over the chunk instead of two.
type AddRounder interface {
	// AddRoundTrip adds to dst, bit for bit, what RoundTrip would make of a
	// copy of src (dst[i] first in the add); src, as long as dst, is not
	// written.
	AddRoundTrip(dst, src []float32)
}

// wireSize returns the wire footprint of n float32 elements under wire
// (4 bytes per element when wire is nil).
func wireSize(wire Wire, n int) int64 {
	if wire == nil {
		return int64(4 * n)
	}
	return int64(wire.WireBytes(n))
}

// Comm coordinates collectives across g ranks on one lane. One Comm is
// shared by all rank goroutines; each method is called by every rank with
// its own rank id and returns only when the collective completes on that
// rank. On one lane a rank's calls must be serialized and matched by every
// other rank in the same order; the two lanes of a communicator (see Side)
// are independent of each other.
type Comm struct {
	*shared
	*lane
	// side is this communicator on its second lane; nil on that sibling
	// itself.
	side *Comm
}

// shared is what both lanes of a communicator have in common.
type shared struct {
	g int

	// mu guards the blackboard slots and the Stats counters of both lanes.
	mu sync.Mutex

	// tel, when non-nil, posts per-operation calls/bytes/durations to a
	// telemetry registry (telemetry.go). Purely observational: nil keeps
	// every operation on the exact uninstrumented code path.
	tel *commTelemetry

	// trace, when non-nil, records one span per collective per rank (cat
	// "collective"), stamped with wall time and the rank's virtual clock on
	// the lane the operation ran on — the per-op detail the critical-path
	// analyzer attributes wire time from. Purely observational, like tel.
	trace *telemetry.Tracer
}

// lane is one independent set of everything a collective touches, so
// operations on different lanes can never interleave their hops, share a
// barrier generation or race on a counter.
type lane struct {
	// ring[r] is the channel rank (r-1+g)%g uses to send to rank r. A hop
	// carries the sender's part list, whose chunks the receiver reads in
	// place (zero-copy; see ringAllReduce).
	ring []chan [][]float32
	// one[r] backs rank r's part list for AllReduce: peers read the list
	// through the ring, so it cannot live on r's stack.
	one [][1][]float32
	// hops[r] counts the ring messages rank r has received, written by its
	// goroutine only; tests pin it at 2·(G−1) per all-reduce.
	hops []int64

	// barrier closes every collective. The closing barrier is what makes
	// the zero-copy ring sound: a rank's chunks are aliased by in-flight
	// messages until every rank's pass completes, so no operation returns —
	// and no caller may rewrite its buffer — before then.
	barrier *Barrier

	// Blackboards for the gather/broadcast style operations, one per
	// payload type.
	ints   blackboard[int]
	floats blackboard[float32]
	bytes  blackboard[byte]

	// stats counts this lane's traffic, per rank.
	stats []Stats

	// cost, when non-nil, prices every collective on this lane onto the
	// participating ranks' virtual clocks (cost.go). nil keeps the hot
	// paths on the exact pre-simulation code path.
	cost *CostModel

	// track is the trace tid of rank 0 on this lane: 0 on the primary, g on
	// the side lane, so a rank's concurrent lanes never share a track.
	track int
}

func newLane(g, track int) *lane {
	l := &lane{
		ring:    make([]chan [][]float32, g),
		one:     make([][1][]float32, g),
		hops:    make([]int64, g),
		barrier: NewBarrier(g),
		ints:    blackboard[int]{slots: make([]*[]int, g)},
		floats:  blackboard[float32]{slots: make([]*[]float32, g)},
		bytes:   blackboard[byte]{slots: make([]*[]byte, g)},
		stats:   make([]Stats, g),
		track:   track,
	}
	for i := range l.ring {
		l.ring[i] = make(chan [][]float32, 1)
	}
	return l
}

// blackboard is one lane's publish-and-read board for one payload type:
// each rank stashes a pooled copy of its payload in its own slot, a barrier
// later every rank reads all slots, and a closing barrier keeps a rank from
// stashing again while a peer still reads. Stash buffers come from the
// board's arena and go back to it when their owner stashes next, which keeps
// the gather/broadcast paths allocation-free apart from the caller-owned
// result copies.
type blackboard[T any] struct {
	pool  sync.Pool
	slots []*[]T
}

// stash publishes a copy of local as rank's entry and returns the copy (so
// a lossy wire can be applied to it before the opening barrier). The rank's
// previous entry is recycled: the previous collective's closing barrier
// means no reader still holds it. The copy allocates only when the arena
// has nothing large enough (start-up, or a new high-water payload size).
func (b *blackboard[T]) stash(mu *sync.Mutex, rank int, local []T) []T {
	p, ok := b.pool.Get().(*[]T)
	if ok && p != nil && cap(*p) >= len(local) {
		*p = (*p)[:len(local)]
	} else {
		s := make([]T, len(local))
		p = &s
	}
	copy(*p, local)
	mu.Lock()
	if old := b.slots[rank]; old != nil {
		b.pool.Put(old)
	}
	b.slots[rank] = p
	mu.Unlock()
	return *p
}

// entry returns rank's published payload (nil when it never stashed). It
// stays valid until the owner stashes again. The caller holds the mutex.
func (b *blackboard[T]) entry(rank int) []T {
	if p := b.slots[rank]; p != nil {
		return *p
	}
	return nil
}

// gather returns caller-owned copies of every rank's entry, in rank order.
// The caller holds the mutex.
func (b *blackboard[T]) gather() [][]T {
	out := make([][]T, len(b.slots))
	for r := range out {
		src := b.entry(r)
		out[r] = make([]T, len(src))
		copy(out[r], src)
	}
	return out
}

// volume sums and maximizes the wire sizes of per-rank payloads.
func volume[T any](payloads [][]T, size func(n int) int64) (total, largest int64) {
	for _, p := range payloads {
		b := size(len(p))
		total += b
		largest = max(largest, b)
	}
	return total, largest
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

// New returns a communicator for g ranks. Both lanes are built here, never
// on first use: ranks reach Side concurrently.
func New(g int) *Comm {
	if g <= 0 {
		panic("collective: need at least one rank")
	}
	sh := &shared{g: g}
	c := &Comm{shared: sh, lane: newLane(g, 0)}
	c.side = &Comm{shared: sh, lane: newLane(g, g)}
	return c
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.g }

// Side returns this communicator on its second lane: the same ranks,
// telemetry and tracer, but its own ring, barrier, blackboards, counters
// and cost model (AttachCost applies to the lane it is called on), so a
// collective issued on Side() runs concurrently with — and never
// interleaves with — one issued on c by the same ranks. Its spans go on
// trace tracks Size()+rank. The side lane has no further sibling: Side of
// the returned communicator is nil.
func (c *Comm) Side() *Comm { return c.side }

// rankStats returns rank's counters, the side lane's included when c is the
// primary. The caller holds the mutex.
func (c *Comm) rankStats(rank int) Stats {
	s := c.stats[rank]
	if c.side != nil {
		s.Add(c.side.stats[rank])
	}
	return s
}

// RankStats returns a copy of the traffic counters for one rank. On the
// primary communicator that is the traffic of both lanes.
func (c *Comm) RankStats(rank int) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rankStats(rank)
}

// LaneStats returns one rank's counters for this lane only. Phase
// accounting (an exchange engine differencing its own wire cost) uses this
// so operations in flight on the other lane — which post their bytes at
// arbitrary times — cannot leak into the window.
func (c *Comm) LaneStats(rank int) Stats {
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
	for r := range c.stats {
		s := c.rankStats(r)
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

// hop is one ring rendezvous: rank hands its successor the part list of the
// call in flight and takes its predecessor's, which must have the same shape.
func (c *Comm) hop(rank int, parts [][]float32) [][]float32 {
	c.ring[(rank+1)%c.g] <- parts
	in := <-c.ring[rank]
	c.hops[rank]++
	if len(in) != len(parts) {
		panic(fmt.Sprintf("collective: ring part count mismatch %d != %d", len(in), len(parts)))
	}
	for pi, src := range in {
		if len(src) != len(parts[pi]) {
			panic(fmt.Sprintf("collective: ring part %d length mismatch %d != %d", pi, len(src), len(parts[pi])))
		}
	}
	return in
}

// ringAllReduce runs one ring all-reduce over the logical collection of
// parts: G−1 scatter-reduce hops then G−1 all-gather hops, one message per
// hop however many parts there are. The message is the sender's part list;
// the receiver knows which chunk the hop moves (the sender's send index is
// its own receive index) and walks the parts — ascending, each chunked with
// the bounds a lone tensor gets — reading the sender's chunks in place. So
// addition order, rounding points and byte accounting are bit-identical
// whether tensors travel alone or fused. Returns the bytes this rank put on
// the wire.
//
// A lossy wire crosses each scatter-reduce hop once: an AddRounder on the
// receiver as it adds, the sender's buffer left alone; any other on the
// sender, in place, before the hop (the unrounded partial sum is dead by
// then: the all-gather overwrites every scatter-sent chunk wholesale).
//
// Nothing is copied or allocated. That is safe because a chunk this rank
// has sent is not written by it again until the all-gather hop delivering
// that chunk's reduced value, a message that transitively — around the ring
// — follows the receiver's consumption of the sent chunk; and because part
// lists (the caller's, or the lane's behind AllReduce) and buffers are left
// alone by their owners until the barrier every rank passes after its last
// hop.
func (c *Comm) ringAllReduce(rank int, parts [][]float32, wire Wire) int64 {
	g := c.g
	if g == 1 {
		return 0
	}
	fused, _ := wire.(AddRounder)
	var bytes int64

	// Scatter-reduce: after step t, chunk (rank−t−1 mod G) holds t+2
	// ranks' partial sums on this rank.
	for step := 0; step < g-1; step++ {
		sendIdx := ((rank-step)%g + g) % g
		recvIdx := ((rank-step-1)%g + g) % g
		for _, p := range parts {
			lo, hi := chunkRange(len(p), g, sendIdx)
			if wire != nil && fused == nil {
				wire.RoundTrip(p[lo:hi])
			}
			bytes += wireSize(wire, hi-lo)
		}
		for pi, src := range c.hop(rank, parts) {
			p := parts[pi]
			lo, hi := chunkRange(len(p), g, recvIdx)
			if fused != nil {
				fused.AddRoundTrip(p[lo:hi], src[lo:hi])
			} else {
				tensor.AddInPlace(p[lo:hi], src[lo:hi])
			}
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
	// All-gather: circulate the fully reduced chunks, verbatim.
	for step := 0; step < g-1; step++ {
		sendIdx := ((rank-step+1)%g + g) % g
		recvIdx := ((rank-step)%g + g) % g
		for _, p := range parts {
			lo, hi := chunkRange(len(p), g, sendIdx)
			bytes += wireSize(wire, hi-lo)
		}
		for pi, src := range c.hop(rank, parts) {
			p := parts[pi]
			lo, hi := chunkRange(len(p), g, recvIdx)
			copy(p[lo:hi], src[lo:hi])
		}
	}
	return bytes
}

// AllReduce sums x elementwise across all ranks; on return every rank's x
// holds the global sum. wire == nil keeps FP32 on the wire; a non-nil Wire
// (FP16 compression-scaling of §III-C, 8-bit quantization, …) is applied to
// every hop: each scatter-reduce hop rounds the partial sum it carries — on
// the sender, or on the receiver as it adds when the wire is an AddRounder —
// (so a chunk's value is re-rounded up to G−1 times, by different ranks, and
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
	c.one[rank][0] = x
	c.AllReduceParts(rank, c.one[rank][:], wire)
}

// AllReduceParts all-reduces every tensor of parts in one fused ring pass
// (all ranks must pass the same sequence of lengths). Values, Stats —
// len(parts) calls and each tensor's own bytes — and telemetry counts are
// bit-identical to one AllReduce per tensor; what fusing saves is ring
// latency (2·(G−1) messages in all, not per tensor), so the cost model
// prices a single ring over the tensors' summed chunk bytes and the trace
// shows a single span. Peers read parts itself through the ring: leave the
// list, like the tensors, alone until the call returns.
func (c *Comm) AllReduceParts(rank int, parts [][]float32, wire Wire) {
	t0, v0 := c.opStart(rank)
	bytes := c.ringAllReduce(rank, parts, wire)
	if c.g > 1 {
		c.barrier.Wait()
	}
	c.charge(rank, func(cm *CostModel) {
		var chunkBytes int64
		for _, p := range parts {
			chunkBytes += wireSize(wire, (len(p)+c.g-1)/c.g)
		}
		cm.Charge(cm.Link.RingAllReduceSecondsBytes(c.g, chunkBytes))
	})
	c.mu.Lock()
	c.stats[rank].AllReduceCalls += int64(len(parts))
	c.stats[rank].AllReduceBytes += bytes
	c.mu.Unlock()
	c.opEnd("allreduce", wireLabel(wire), rank, int64(len(parts)), bytes, t0, v0)
}

// allGather completes a blackboard all-gather whose payload rank has just
// stashed on b: every rank receives caller-owned copies of the per-rank
// (possibly different-length) payloads in rank order. Accounting is the
// standard ring all-gather volume, (G−1)/G of the payloads' total wire size,
// and the cost model prices the ring at the largest payload.
func allGather[T any](c *Comm, b *blackboard[T], rank int, size func(n int) int64) (out [][]T, bytes int64) {
	c.barrier.Wait()
	c.mu.Lock()
	out = b.gather()
	total, largest := volume(out, size)
	bytes = total * int64(c.g-1) / int64(c.g)
	c.stats[rank].AllGatherCalls++
	c.stats[rank].AllGatherBytes += bytes
	c.mu.Unlock()
	c.barrier.Wait()
	c.charge(rank, func(cm *CostModel) {
		cm.Charge(cm.Link.RingAllGatherSeconds(c.g, largest))
	})
	return out, bytes
}

// AllGatherInts gathers each rank's (possibly different-length) int slice;
// every rank receives the per-rank slices in rank order. This is the cheap
// Θ(G·K) index gather of §III-A step 3, with indices on the wire as int32
// (4 bytes) as real stacks do. The returned inner slices are copies owned
// by the caller (the blackboard stash itself is pooled).
func (c *Comm) AllGatherInts(rank int, local []int) [][]int {
	t0, v0 := c.opStart(rank)
	c.ints.stash(&c.mu, rank, local)
	out, bytes := allGather(c, &c.ints, rank, func(n int) int64 { return int64(4 * n) })
	c.opEnd("allgather_ints", "int32", rank, 1, bytes, t0, v0)
	return out
}

// AllGatherFloats gathers each rank's float32 slice to every rank, FP32 or
// FP16 on the wire (the stashed copy crosses the wire once). This is the
// expensive baseline exchange of §II-B: the result materializes G dense
// gradient blocks on every rank.
func (c *Comm) AllGatherFloats(rank int, local []float32, wire Wire) [][]float32 {
	t0, v0 := c.opStart(rank)
	if stashed := c.floats.stash(&c.mu, rank, local); wire != nil {
		wire.RoundTrip(stashed)
	}
	out, bytes := allGather(c, &c.floats, rank, func(n int) int64 { return wireSize(wire, n) })
	c.opEnd("allgather_floats", wireLabel(wire), rank, 1, bytes, t0, v0)
	return out
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
	c.ints.stash(&c.mu, rank, vote[:])
	c.barrier.Wait()
	all := true
	c.mu.Lock()
	for r := range c.ints.slots {
		if s := c.ints.entry(r); len(s) != 1 || s[0] == 0 {
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
