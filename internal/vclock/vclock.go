// Package vclock provides the deterministic virtual clock the simulator
// prices a bulk-synchronous run on.
//
// A Clock measures simulated seconds, not wall time. The simulated step is
// one BSP superstep (Valiant, CACM 1990): every rank runs the same compute,
// meets at the same collectives and applies the same update, so every
// charge — FLOPs ÷ achieved FLOP/s, bytes ÷ memory bandwidth, a
// collective's α–β cost — is the same on every rank, and one clock stands
// for all of them. Charges are made from one goroutine in program order, so
// the resulting times are independent of goroutine scheduling: repeated runs
// with the same seed produce bit-identical virtual times.
package vclock

import "sync"

// Clock is a virtual clock, in seconds. The zero value is a clock at time
// zero, ready to use. Methods are safe for concurrent use (a telemetry
// scrape may read it while a step charges it); the simulator's determinism
// comes from charging it from one goroutine only.
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
// the clock's past is a no-op (max semantics, used to join two timelines).
func (c *Clock) AdvanceTo(t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t > c.t {
		c.t = t
	}
}
