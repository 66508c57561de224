//go:build race

package dsm

// raceDetector reports a race-detector build, whose instrumentation moves
// what the allocation bounds measure.
const raceDetector = true
