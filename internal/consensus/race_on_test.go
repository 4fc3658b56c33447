//go:build race

package consensus

// raceEnabled reports whether the race detector is compiled in; the
// exhaustive differential tests shrink under its slowdown.
const raceEnabled = true
