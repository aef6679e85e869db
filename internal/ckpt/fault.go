package ckpt

import (
	"fmt"
	"math"
	"sort"

	"zipflm/internal/rng"
)

// Failure injection for the virtual-clock simulator. A FaultPlan is a
// deterministic, seeded schedule of rank deaths in simulated time: the
// trainer consumes it after every step, and a consumed fault rolls the run
// back to its last checkpoint. Because the plan and the clock are both
// deterministic, a faulty run is exactly reproducible — the property the
// goodput experiment's determinism check asserts.

// Fault is one rank failure at a simulated time.
type Fault struct {
	// Time is the failure instant in virtual seconds.
	Time float64
	// Rank is the dying rank.
	Rank int
}

// FaultPlan is an ordered schedule of failures with a consumption cursor.
type FaultPlan struct {
	events []Fault
	next   int
}

// NewFaultPlan builds a plan from explicit events (copied, sorted by time).
func NewFaultPlan(events []Fault) *FaultPlan {
	ev := append([]Fault(nil), events...)
	sort.Slice(ev, func(i, j int) bool { return ev[i].Time < ev[j].Time })
	return &FaultPlan{events: ev}
}

// PoissonFaultPlan draws failure arrivals as a Poisson process with the
// given cluster-wide MTBF (exponential inter-arrival times, mean mtbf
// seconds) over [0, horizon), assigning each failure a uniform rank — the
// memoryless model Young/Daly interval analysis assumes. The plan is fully
// determined by the seed.
func PoissonFaultPlan(seed uint64, ranks int, mtbf, horizon float64) *FaultPlan {
	if ranks <= 0 || mtbf <= 0 {
		panic(fmt.Sprintf("ckpt: PoissonFaultPlan needs positive ranks (%d) and mtbf (%g)", ranks, mtbf))
	}
	r := rng.New(seed)
	var events []Fault
	t := 0.0
	for {
		// Exponential inter-arrival: −M·ln(1−u), u ∈ [0,1).
		t += -mtbf * math.Log(1-r.Float64())
		if t >= horizon {
			break
		}
		events = append(events, Fault{Time: t, Rank: r.Intn(ranks)})
	}
	return &FaultPlan{events: events}
}

// Next consumes and returns the earliest unconsumed fault with Time ≤ now.
// It returns ok=false when no due fault remains (later faults stay queued
// for future calls with a larger now).
func (p *FaultPlan) Next(now float64) (Fault, bool) {
	if p == nil || p.next >= len(p.events) || p.events[p.next].Time > now {
		return Fault{}, false
	}
	f := p.events[p.next]
	p.next++
	return f, true
}

// YoungDaly returns the classic optimal checkpoint interval
// τ = √(2·δ·M) for checkpoint write cost δ and mean time between failures
// M, both in seconds (the first-order optimum of periodic-checkpoint
// goodput; Young 1974, Daly 2006). Non-positive inputs return 0.
func YoungDaly(writeSeconds, mtbfSeconds float64) float64 {
	if writeSeconds <= 0 || mtbfSeconds <= 0 {
		return 0
	}
	return math.Sqrt(2 * writeSeconds * mtbfSeconds)
}
