package collective

import "fmt"

// This file is the compressed collective path the gradient-compression
// subsystem (internal/compress) rides on. Sparsifying compressors (top-k
// with error feedback) cannot travel the ring all-reduce — summing two
// ranks' sparse selections densifies the payload mid-ring — so, like
// Deep-Gradient-Compression-style production stacks, the compressed
// all-reduce is an all-gather of per-rank opaque payloads followed by a
// decode-and-sum:
//
//  1. each rank encodes its contribution into a payload (indices + values,
//     quantized blocks, … — the collective never interprets the bytes);
//  2. the payloads all-gather, accounted at the real ring all-gather volume
//     of the *compressed* bytes;
//  3. the G payloads are decoded in rank order into a zeroed buffer, so the
//     accumulated result — float addition in a fixed order — is the same on
//     every rank that would decode them and across reruns.
//
// Every rank of a distributed run would decode the same bytes the same way,
// so the executor decodes once, into rank 0's buffer, and determinism needs
// nothing from the scheduler: payload bytes are produced before the
// exchange, and the decode order is the rank order.

// Decoder decodes one compressed payload produced by the caller's encoder,
// accumulating the carried values into acc. DecodeAdd must not retain
// payload.
type Decoder interface {
	DecodeAdd(acc []float32, payload []byte) error
}

// AllReduceCompressedRanks sums lossily compressed contributions across the
// ranks, called once for the whole group: payloads[r] is rank r's encoded
// contribution, and x — rank 0's buffer — receives the sum of all G decoded
// payloads (its previous contents are discarded: the encoders already
// consumed them). Unlike AllReduceRanks, the result is the sum of what
// survived each rank's compressor, not of the raw tensors; the caller's
// error-feedback state carries the difference into the next step. A payload
// that fails to decode ends the decode with an error naming its rank.
//
// Every rank's Stats count one call on the AllReduce counters (this is the
// dense gradient exchange, just compressed) at the ring all-gather volume of
// the real payload bytes, the cost model prices the same volume, and
// telemetry and the tracer get one operation per rank — so a ratio below
// one shows up directly as fewer wire bytes and less simulated
// communication time.
func (c *Comm) AllReduceCompressedRanks(x []float32, payloads [][]byte, dec Decoder) error {
	c.checkRanks("payloads", len(payloads))
	t0 := c.opStartRanks()
	for r, p := range payloads {
		c.sent[r] = int64(len(p))
	}
	bytes, largest := c.gatherVolume()
	clear(x)
	var err error
	for r, p := range payloads {
		if e := dec.DecodeAdd(x, p); e != nil {
			err = fmt.Errorf("collective: compressed all-reduce: rank %d payload: %w", r, e)
			break
		}
	}
	if cm := c.cost; cm != nil {
		cm.Charge(cm.Link.RingAllGatherSeconds(c.g, largest))
	}
	c.mu.Lock()
	for r := range c.stats {
		c.stats[r].AllReduceCalls++
		c.stats[r].AllReduceBytes += bytes
	}
	c.mu.Unlock()
	for r := range payloads {
		c.opEnd("allreduce_compressed", "bytes", r, 1, bytes, t0, c.v0[r])
	}
	return err
}
