//go:build !race

package dist

// raceEnabled reports whether the race detector is compiled in; alloc-gate
// tests skip under it because instrumentation inflates alloc counts.
const raceEnabled = false
