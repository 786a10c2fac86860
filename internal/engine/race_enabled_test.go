//go:build race

package engine

// raceEnabled reports whether the race detector is active; its
// instrumentation slows a bootstrap key set's upload and a bootstrap past
// what a unit test should spend, so the test that serves one over HTTP skips
// under it.
const raceEnabled = true
