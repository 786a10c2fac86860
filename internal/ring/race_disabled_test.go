//go:build !race

package ring

const raceEnabled = false
