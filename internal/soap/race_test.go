//go:build race

package soap_test

// raceEnabled skips the allocation gate under the race detector, which
// randomizes sync.Pool caching.
const raceEnabled = true
