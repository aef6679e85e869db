//go:build race

// Package israce tells tests whether the binary was built with -race.
// Allocation guards skip themselves there: sync.Pool intentionally drops
// items under the detector and its instrumentation itself allocates.
package israce

// Enabled reports whether the race detector is compiled in.
const Enabled = true
