//go:build !race

package server

// raceEnabled says the tests run under the race detector.
const raceEnabled = false
