// Package vclock provides the deterministic per-rank virtual clocks the
// simulator threads through compute, memory and collective operations.
//
// A Clock measures simulated seconds, not wall time. Ranks advance their own
// clock for local work (FLOPs ÷ achieved FLOP/s, bytes ÷ memory bandwidth);
// collective operations synchronize the participating clocks to their
// maximum and then advance them together by the operation's α–β cost — the
// standard trace/cost-model treatment of bulk-synchronous programs. Because
// every cross-clock operation is a max-then-advance applied at a barrier
// where all participants are quiesced, the resulting times are independent
// of goroutine scheduling: repeated runs with the same seed produce
// bit-identical virtual times.
package vclock

import "sync"

// Clock is one rank's virtual clock, in seconds. The zero value is a clock
// at time zero, ready to use. Methods are safe for concurrent use; the
// simulator's determinism comes from only touching a clock at points where
// the owning rank is quiesced (its own goroutine, or a collective barrier).
type Clock struct {
	mu sync.Mutex
	t  float64
}

// Now returns the clock's current virtual time in seconds.
func (c *Clock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d seconds (negative d panics — virtual
// time never rewinds) and returns the new time.
func (c *Clock) Advance(d float64) float64 {
	if d < 0 {
		panic("vclock: negative advance")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
	return c.t
}

// AdvanceTo moves the clock forward to time t if t is ahead of it; a t in
// the clock's past is a no-op (max semantics, used by barrier
// synchronization).
func (c *Clock) AdvanceTo(t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t
	}
}

// MaxNow returns the latest time across the given clocks (0 for none).
func MaxNow(clocks []*Clock) float64 {
	var m float64
	for _, c := range clocks {
		if t := c.Now(); t > m {
			m = t
		}
	}
	return m
}

// SyncAdvance implements the collective cost step: synchronize every clock
// to the group maximum, then advance all of them together by d seconds.
// The caller must have all owning ranks quiesced (at a barrier).
func SyncAdvance(clocks []*Clock, d float64) {
	t := MaxNow(clocks) + d
	for _, c := range clocks {
		c.AdvanceTo(t)
	}
}
