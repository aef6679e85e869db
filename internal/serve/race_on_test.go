//go:build race

package serve

// raceEnabled reports whether this test binary was built with -race, so
// allocation-count assertions can skip (the detector's channel
// instrumentation allocates).
const raceEnabled = true
