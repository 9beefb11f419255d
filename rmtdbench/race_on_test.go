//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; its shadow
// memory is not returned to the OS, so RSS assertions skip under it.
const raceEnabled = true
