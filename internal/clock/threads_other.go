//go:build !linux

package clock

// otherThreadsIdle cannot see thread states outside Linux; the pump falls
// back to its timing heuristic alone.
func otherThreadsIdle() (idle, ok bool) { return false, false }

// nap is a no-op where the thread scan is unavailable.
func nap() {}
