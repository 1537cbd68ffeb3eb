//go:build race

package simgpu

// raceEnabled reports a race-detector build, under which sync.Pool drops
// a share of the values put into it at random, so tests cannot count on
// the idle warp pools handing back what they were given.
const raceEnabled = true
