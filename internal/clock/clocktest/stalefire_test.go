package clocktest

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/clock"
)

// TestResetStaleFireVirtual pins Timer.Reset's stale-fire caveat on the
// heap-backed Virtual: a timer that fired but was never drained keeps
// its stale value in C across Reset, so a naive wait would complete
// immediately — and the deadline-filter discipline (re-arm the remainder
// whenever the received fire time precedes the current deadline, the
// workaround wsthread.go and awaitAnonymous use) is what makes the next
// wait last its full window.
func TestResetStaleFireVirtual(t *testing.T) {
	v := clock.NewVirtual(time.Unix(0, 0))
	v.Stop() // manual advancing only
	start := v.Now()

	tm := v.NewTimer(10 * time.Millisecond)
	v.Advance(20 * time.Millisecond) // fire it; deliberately do not drain

	// Re-arm for a fresh 100ms window. The stale fire still sits in C.
	deadline := v.Now().Add(100 * time.Millisecond)
	tm.Reset(100 * time.Millisecond)
	select {
	case at := <-tm.C:
		if !at.Before(deadline) {
			t.Fatalf("stale fire at %v not before deadline %v", at.Sub(start), deadline.Sub(start))
		}
		// The deadline filter: a fire before the deadline is stale;
		// re-arm the remainder instead of treating the wait as done.
		tm.Reset(deadline.Sub(v.Now()))
	default:
		t.Fatal("fired-but-undrained timer lost its stale fire across Reset; " +
			"Virtual must keep time.Timer's caveat (callers rely on the documented discipline)")
	}

	// The re-armed wait must now run its full course: nothing before the
	// deadline, a correct fire at it.
	v.Advance(50 * time.Millisecond)
	select {
	case at := <-tm.C:
		t.Fatalf("wait satisfied at %v, before the %v deadline", at.Sub(start), deadline.Sub(start))
	default:
	}
	v.Advance(60 * time.Millisecond)
	select {
	case at := <-tm.C:
		if at.Before(deadline) {
			t.Fatalf("fire at %v precedes deadline %v", at.Sub(start), deadline.Sub(start))
		}
	default:
		t.Fatal("re-armed timer never fired")
	}
}

// TestResetStaleFireReal pins the Real contract, which has no caveat:
// runtime timers discard an undelivered fire on Reset or Stop, so after
// a fire nobody received, Reset leaves nothing in C before the new
// deadline and Stop reports that it prevented the fire.
func TestResetStaleFireReal(t *testing.T) {
	clk := clock.Real{}
	tm := clk.NewTimer(5 * time.Millisecond)
	time.Sleep(30 * time.Millisecond) // fire; do not drain

	wait := 150 * time.Millisecond
	deadline := clk.Now().Add(wait)
	tm.Reset(wait)
	if at := <-tm.C; at.Before(deadline) {
		t.Fatalf("wait satisfied at %v, %v before its deadline",
			at, deadline.Sub(at))
	}

	tm = clk.NewTimer(5 * time.Millisecond)
	time.Sleep(30 * time.Millisecond) // fire; do not drain
	if !tm.Stop() {
		t.Fatal("Stop after an undelivered fire reported false")
	}
	select {
	case at := <-tm.C:
		t.Fatalf("stopped timer still delivered its fire at %v", at)
	default:
	}
}

// TestRealTimersAddNoGoroutine asserts that Real timers are runtime
// timers: 10k pending timers, created, reset, and stopped in bulk, add no
// goroutine to the process.
func TestRealTimersAddNoGoroutine(t *testing.T) {
	clk := clock.Real{}
	runtime.GC()
	base := runtime.NumGoroutine()

	const n = 10000
	timers := make([]*clock.Timer, n)
	for i := range timers {
		timers[i] = clk.NewTimer(time.Hour + time.Duration(i)*time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("10k pending timers grew goroutines %d -> %d", base, g)
	}
	// Churn: re-arm every timer a few times, then stop them all.
	for round := 0; round < 3; round++ {
		for i, tm := range timers {
			tm.Reset(time.Hour + time.Duration(i+round)*time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > base {
			t.Fatalf("reset churn round %d grew goroutines %d -> %d", round, base, g)
		}
	}
	stopped := 0
	for _, tm := range timers {
		if tm.Stop() {
			stopped++
		}
	}
	if stopped != n {
		t.Fatalf("stopped %d of %d hour-scale timers", stopped, n)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("after churn goroutines %d -> %d", base, g)
	}
}
