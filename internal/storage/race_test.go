//go:build race

package storage

// raceEnabled reports a test binary built with -race, whose
// instrumentation slows single-goroutine byte loops about 25-fold.
const raceEnabled = true
