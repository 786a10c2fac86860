//go:build race

package anaheim

// raceEnabled reports whether the race detector is active; its runtime
// instrumentation adds allocations, so AllocsPerRun assertions skip under it.
const raceEnabled = true
