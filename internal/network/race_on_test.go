//go:build race

package network

// raceEnabled reports whether the race detector is compiled in; tests that
// count allocations skip under it (sync.Pool intentionally misbehaves).
const raceEnabled = true
