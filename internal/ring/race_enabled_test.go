//go:build race

package ring

// raceEnabled reports whether the race detector is active; under it
// sync.Pool drops a random share of what it is given, so tests that follow
// one polynomial through the pool skip.
const raceEnabled = true
