//go:build !race

package watch

// raceEnabled mirrors the -race build flag: allocation-exactness
// assertions are skipped under the race detector, whose instrumentation
// perturbs allocation behavior.
const raceEnabled = false
