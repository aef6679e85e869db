package collective

import "fmt"

// This file is the compressed collective path the gradient-compression
// subsystem (internal/compress) rides on. Sparsifying compressors (top-k
// with error feedback) cannot travel the ring all-reduce — summing two
// ranks' sparse selections densifies the payload mid-ring — so, like
// Deep-Gradient-Compression-style production stacks, the compressed
// all-reduce is an all-gather of per-rank opaque payloads followed by an
// identical local decode-and-sum on every rank:
//
//  1. each rank encodes its contribution into a payload (indices + values,
//     quantized blocks, … — the collective never interprets the bytes);
//  2. the payloads all-gather over the blackboard, accounted at the real
//     ring all-gather volume of the *compressed* bytes;
//  3. every rank zeroes its buffer and decodes all G payloads in rank
//     order, so the accumulated result — float addition in a fixed order —
//     is bit-identical on every rank and across reruns.
//
// Determinism therefore needs nothing from the scheduler: payload bytes are
// produced before the exchange, and the decode order is the rank order.

// Decoder decodes one compressed payload produced by the caller's encoder,
// accumulating the carried values into acc. All ranks of one
// AllReduceCompressed call must pass functionally identical decoders: the
// final replica equality rests on every rank decoding the same payloads the
// same way. DecodeAdd must not retain payload (it aliases pooled blackboard
// memory).
type Decoder interface {
	DecodeAdd(acc []float32, payload []byte) error
}

// AllReduceCompressed sums lossily compressed contributions across ranks:
// every rank passes its own encoded payload plus the destination buffer x,
// and on return every rank's x holds the identical sum of all G decoded
// payloads (x's previous contents are discarded — the caller's encoder
// already consumed them). Unlike AllReduce, the result is the sum of what
// survived each rank's compressor, not of the raw tensors; the caller's
// error-feedback state carries the difference into the next step.
//
// Stats accounting lands on the AllReduce counters (this is the dense
// gradient exchange, just compressed) at the ring all-gather volume of the
// real payload bytes, and the cost model prices the same volume — so a
// ratio below one shows up directly as fewer wire bytes and less simulated
// communication time.
func (c *Comm) AllReduceCompressed(rank int, x []float32, payload []byte, dec Decoder) error {
	t0, v0 := c.opStart(rank)
	c.bytes.stash(&c.mu, rank, payload)
	c.barrier.Wait()

	// Snapshot the payload slices; entries stay valid until their owner
	// stashes again, which the closing barrier below forbids until every
	// rank is done decoding.
	payloads := make([][]byte, c.g)
	c.mu.Lock()
	for r := range payloads {
		payloads[r] = c.bytes.entry(r)
	}
	total, largest := volume(payloads, func(n int) int64 { return int64(n) })
	bytes := total * int64(c.g-1) / int64(c.g)
	c.stats[rank].AllReduceCalls++
	c.stats[rank].AllReduceBytes += bytes
	c.mu.Unlock()

	// Decode-and-sum in rank order: same payloads, same order, same float
	// rounding on every rank.
	clear(x)
	var err error
	for r, p := range payloads {
		if e := dec.DecodeAdd(x, p); e != nil {
			err = fmt.Errorf("collective: compressed all-reduce: rank %d payload: %w", r, e)
			break
		}
	}
	if c.g > 1 {
		c.barrier.Wait()
	}
	c.charge(rank, func(cm *CostModel) {
		cm.Charge(cm.Link.RingAllGatherSeconds(c.g, largest))
	})
	c.opEnd("allreduce_compressed", "bytes", rank, 1, bytes, t0, v0)
	return err
}
