//go:build race

package watch

// raceEnabled mirrors the -race build flag.
const raceEnabled = true
