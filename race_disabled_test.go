//go:build !race

package anaheim

const raceEnabled = false
