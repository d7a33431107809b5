// Package clock abstracts time so that every time-dependent component in the
// repository (token buckets, connection timeouts, hold-open timers, the load
// generator's "one minute" runs) can execute either on the real wall clock or
// on a fast, deterministic virtual clock used by the experiment harness.
//
// The paper's evaluation ramps hundreds to thousands of clients for one
// minute per configuration over trans-Atlantic links; replaying that in real
// time would take hours. Running the identical code on a Virtual clock
// compresses a simulated minute into milliseconds while preserving every
// ordering that matters (serialization delays, propagation delays, TCP-style
// timeouts).
//
// # Timers
//
//   - Real timers are the runtime's own: NewTimer and AfterFunc wrap
//     time.NewTimer and time.AfterFunc, and Timer.C is the runtime
//     channel. Under go 1.23+ timer semantics (go.mod says 1.24), Stop
//     and Reset discard an undelivered fire, so a Real timer never hands
//     a stale value to the next wait.
//   - Virtual timers sit on one binary min-heap per clock, keyed by
//     (deadline, registration order); a Timer records its heap index, so
//     Stop and Reset are O(log n) and allocate nothing. Due timers leave
//     the heap in exactly that order, the order the frozen
//     internal/clock/refclock oracle fires in; the clock/clocktest
//     differential suite and FuzzVirtualDifferential pin the two together.
//   - Virtual C is buffered and a fire is delivered outside the clock's
//     lock, so Virtual keeps time.Timer's pre-1.23 stale-fire caveat: a
//     fire already in C, or in flight when Stop or Reset runs, stays there
//     and can satisfy the next wait. Callers that re-arm without draining
//     must filter wakes by deadline (see the WsThread hold-open loop).
package clock

import "time"

// Clock is the minimal time interface used throughout the repository.
//
// Implementations must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the calling goroutine for at least d.
	Sleep(d time.Duration)
	// After returns a channel that receives the clock's time once at
	// least d has elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a cancellable timer that fires after d.
	NewTimer(d time.Duration) *Timer
	// AfterFunc runs f in its own goroutine after at least d has
	// elapsed, unless the returned timer is stopped first.
	AfterFunc(d time.Duration, f func()) *Timer
	// Since is shorthand for Now().Sub(t).
	Since(t time.Time) time.Duration
}

// Timer is a cancellable single-shot timer bound to a Clock. When the timer
// fires, the clock's current time is sent on C (unless the timer was created
// by AfterFunc, in which case the callback runs instead).
//
// A Real timer wraps a runtime timer; a Virtual timer is its own heap
// entry, so Stop and Reset allocate nothing on either clock — experiment
// workloads create and re-arm timers by the hundred thousand.
type Timer struct {
	// C receives the fire time for channel-based timers. Nil for
	// AfterFunc timers.
	C <-chan time.Time

	rt *time.Timer // the runtime timer behind a Real timer
	v  *Virtual    // the clock a Virtual timer is scheduled on

	// Virtual scheduling state, guarded by v.mu.
	ch       chan time.Time // send side of C; nil for AfterFunc timers
	f        func()         // AfterFunc callback; nil for channel timers
	deadline int64          // absolute ns since the clock's start
	seq      uint64         // registration order, the fire-order tie-break
	idx      int            // heap index; -1 when not scheduled
}

// Stop cancels the timer. It reports whether the call prevented the timer
// from firing. Stop is idempotent.
func (t *Timer) Stop() bool {
	switch {
	case t == nil:
		return false
	case t.rt != nil:
		return t.rt.Stop()
	case t.v != nil:
		return t.v.stopTimer(t)
	}
	return false
}

// Reset re-arms the timer to fire after d, reporting whether it was
// still pending. On a Virtual clock it carries time.Timer's pre-1.23 caveat:
// callers that may have let the timer fire must Stop and drain C before
// Reset, or a stale fire can satisfy the next wait immediately. Loops
// that would otherwise allocate a fresh timer per iteration (hold-open
// windows, per-message waits) Reset one timer instead.
func (t *Timer) Reset(d time.Duration) bool {
	switch {
	case t == nil:
		return false
	case t.rt != nil:
		return t.rt.Reset(d)
	case t.v != nil:
		return t.v.startTimer(t, d)
	}
	return false
}

// Real is the wall Clock: every method delegates to package time. The
// zero value is ready to use; the package-level Wall variable is a shared
// instance.
type Real struct{}

// Wall is the shared wall-clock instance used by daemons (cmd/wsd and
// friends). Experiments use a Virtual clock instead.
var Wall Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) *Timer {
	rt := time.NewTimer(d)
	return &Timer{C: rt.C, rt: rt}
}

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) *Timer {
	return &Timer{rt: time.AfterFunc(d, f)}
}
