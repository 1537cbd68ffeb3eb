//go:build race

package algorithms

// raceEnabled reports a race-detector build, under which the simulator
// runs some twenty times slower.
const raceEnabled = true
