//go:build !race

package storage

// raceEnabled reports a test binary built with -race.
const raceEnabled = false
