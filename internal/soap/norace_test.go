//go:build !race

package soap_test

const raceEnabled = false
