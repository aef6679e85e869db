//go:build !race

package israce

// Enabled reports whether the race detector is compiled in.
const Enabled = false
