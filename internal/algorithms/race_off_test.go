//go:build !race

package algorithms

// raceEnabled reports a race-detector build (see race_on_test.go).
const raceEnabled = false
