// Package clocktest is the differential fence for package clock:
// randomized fixed-seed schedules of NewTimer/Stop/Reset/AfterFunc run
// against the frozen reference implementation (internal/clock/refclock —
// time.Timer-backed Real, container/heap-backed Virtual), asserting
// identical fire/cancel verdicts and fire ordering on both clocks.
//
// Virtual comparisons are fully deterministic: both clocks are created
// and immediately Stop()ped, which kills the auto-advancing pump while
// leaving registration and manual Advance intact, so every fire happens
// synchronously inside Advance and channel states can be compared
// op-by-op. Real comparisons issue all Stop/Reset ops up front — long
// before the earliest deadline — so verdicts cannot race in-flight
// fires, then compare which timers fired and in what order with
// deadlines spaced far enough apart that scheduling latency cannot
// reorder them.
package clocktest

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/clock/refclock"
)

// timerPair is one timer created on both implementations.
type timerPair struct {
	impl    *clock.Timer
	oracle  *refclock.Timer
	stopped bool // armed state per our own bookkeeping (for reporting only)
}

// virtualPair is a clock Virtual and an oracle Virtual in lockstep, both
// with their pumps stopped.
type virtualPair struct {
	impl   *clock.Virtual
	oracle *refclock.Virtual
	start  time.Time
}

func newVirtualPair() *virtualPair {
	start := time.Unix(0, 0)
	p := &virtualPair{
		impl:   clock.NewVirtual(start),
		oracle: refclock.NewVirtual(start),
		start:  start,
	}
	// Kill both pumps: time moves only through Advance, making every
	// fire synchronous and the whole schedule deterministic.
	p.impl.Stop()
	p.oracle.Stop()
	return p
}

// drain compares the channel state of one timer pair after an Advance:
// both must agree on whether a fire is pending and on the fire time.
func (p *virtualPair) drain(t *testing.T, i int, tp *timerPair) {
	t.Helper()
	for {
		var wAt, oAt time.Time
		wOK, oOK := false, false
		select {
		case wAt = <-tp.impl.C:
			wOK = true
		default:
		}
		select {
		case oAt = <-tp.oracle.C:
			oOK = true
		default:
		}
		if wOK != oOK {
			t.Fatalf("timer %d: clock fired=%v oracle fired=%v", i, wOK, oOK)
		}
		if !wOK {
			return
		}
		if !wAt.Equal(oAt) {
			t.Fatalf("timer %d: clock fired at %v, oracle at %v",
				i, wAt.Sub(p.start), oAt.Sub(p.start))
		}
	}
}

// TestVirtualDifferential replays randomized fixed-seed schedules
// of create/stop/reset/advance on the heap-backed Virtual and the
// frozen heap-backed oracle, asserting identical Stop/Reset verdicts and
// identical fire times after every advance.
func TestVirtualDifferential(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newVirtualPair()
		var timers []*timerPair

		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 4: // create
				d := time.Duration(rng.Intn(2000)-20) * time.Millisecond
				timers = append(timers, &timerPair{
					impl:   p.impl.NewTimer(d),
					oracle: p.oracle.NewTimer(d),
				})
			case r < 6 && len(timers) > 0: // stop
				tp := timers[rng.Intn(len(timers))]
				wv := tp.impl.Stop()
				ov := tp.oracle.Stop()
				if wv != ov {
					t.Fatalf("seed %d op %d: Stop verdict clock=%v oracle=%v (stopped=%v)",
						seed, op, wv, ov, tp.stopped)
				}
				tp.stopped = true
			case r < 8 && len(timers) > 0: // reset
				tp := timers[rng.Intn(len(timers))]
				d := time.Duration(rng.Intn(1000)) * time.Millisecond
				// Deterministic-reset discipline: drain any delivered
				// fire on both sides first, so Reset's stale-fire caveat
				// (pinned separately in TestResetStaleFire*) cannot
				// desynchronize the channel comparison.
				p.drain(t, -1, tp)
				wv := tp.impl.Reset(d)
				ov := tp.oracle.Reset(d)
				if wv != ov {
					t.Fatalf("seed %d op %d: Reset verdict clock=%v oracle=%v",
						seed, op, wv, ov)
				}
				tp.stopped = false
			default: // advance
				d := time.Duration(rng.Intn(700)) * time.Millisecond
				p.impl.Advance(d)
				p.oracle.Advance(d)
				if wp, op_ := p.impl.Pending(), p.oracle.Pending(); wp != op_ {
					t.Fatalf("seed %d op %d: Pending clock=%d oracle=%d", seed, op, wp, op_)
				}
				for i, tp := range timers {
					p.drain(t, i, tp)
				}
			}
		}
		// Flush everything still pending and compare the tail.
		p.impl.Advance(time.Hour)
		p.oracle.Advance(time.Hour)
		for i, tp := range timers {
			p.drain(t, i, tp)
		}
	}
}

// TestVirtualAfterFuncOrdering drives AfterFunc timers on both
// Virtuals and asserts the callbacks observe the same total order. The
// clock fires a batch in (deadline, registration) order on the advancing
// goroutine, but each callback runs on its own goroutine (time.AfterFunc
// semantics), so ordering is reconstructed from the virtual fire times
// recorded by the callbacks, which are exact on both implementations.
func TestVirtualAfterFuncOrdering(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed * 77))
		p := newVirtualPair()

		type firing struct {
			idx int
			at  time.Duration
		}
		var mu sync.Mutex
		var implLog, oracleLog []firing
		var wg sync.WaitGroup

		n := 60
		for i := 0; i < n; i++ {
			d := time.Duration(rng.Intn(500)) * time.Millisecond
			idx := i
			wg.Add(2)
			p.impl.AfterFunc(d, func() {
				mu.Lock()
				implLog = append(implLog, firing{idx, d})
				mu.Unlock()
				wg.Done()
			})
			p.oracle.AfterFunc(d, func() {
				mu.Lock()
				oracleLog = append(oracleLog, firing{idx, d})
				mu.Unlock()
				wg.Done()
			})
		}
		p.impl.Advance(time.Hour)
		p.oracle.Advance(time.Hour)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("seed %d: AfterFunc callbacks did not all run", seed)
		}

		// Each callback goroutine recorded its own fire; group by fire
		// time and compare the sets — both sides must have fired exactly
		// the same timers at exactly the same virtual times.
		index := func(log []firing) map[int]time.Duration {
			m := make(map[int]time.Duration, len(log))
			for _, f := range log {
				m[f.idx] = f.at
			}
			return m
		}
		wm, om := index(implLog), index(oracleLog)
		if len(wm) != n || len(om) != n {
			t.Fatalf("seed %d: clock fired %d, oracle fired %d, want %d", seed, len(wm), len(om), n)
		}
		for idx, at := range wm {
			if om[idx] != at {
				t.Fatalf("seed %d: timer %d clock fire at %v, oracle at %v", seed, idx, at, om[idx])
			}
		}
	}
}

// TestRealDifferential runs a fixed-seed schedule against the
// frozen time.Timer-backed Real oracle. All Stop/Reset decisions are
// made up front — milliseconds before the earliest deadline — so their
// verdicts are deterministic; then both implementations run out the
// schedule in real time and must agree on exactly which timers fired.
func TestRealDifferential(t *testing.T) {
	implClk := clock.Real{}
	oracleClk := refclock.Real{}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed * 131))
		const n = 40
		timers := make([]*timerPair, n)
		expectFire := make([]bool, n)
		for i := range timers {
			// Deadlines 60–200ms out: every verdict op below completes
			// within a few ms, far from the earliest deadline.
			d := time.Duration(60+rng.Intn(140)) * time.Millisecond
			timers[i] = &timerPair{
				impl:   implClk.NewTimer(d),
				oracle: oracleClk.NewTimer(d),
			}
			expectFire[i] = true
		}
		for op := 0; op < 30; op++ {
			i := rng.Intn(n)
			tp := timers[i]
			switch rng.Intn(2) {
			case 0:
				wv, ov := tp.impl.Stop(), tp.oracle.Stop()
				if wv != ov {
					t.Fatalf("seed %d: Stop verdict clock=%v oracle=%v", seed, wv, ov)
				}
				expectFire[i] = false
			case 1:
				d := time.Duration(60+rng.Intn(140)) * time.Millisecond
				wv, ov := tp.impl.Reset(d), tp.oracle.Reset(d)
				if wv != ov {
					t.Fatalf("seed %d: Reset verdict clock=%v oracle=%v", seed, wv, ov)
				}
				expectFire[i] = true
			}
		}
		time.Sleep(250 * time.Millisecond) // past every deadline + scheduling slack
		for i, tp := range timers {
			var wOK, oOK bool
			select {
			case <-tp.impl.C:
				wOK = true
			default:
			}
			select {
			case <-tp.oracle.C:
				oOK = true
			default:
			}
			if wOK != oOK || wOK != expectFire[i] {
				t.Fatalf("seed %d timer %d: clock fired=%v oracle fired=%v want=%v",
					seed, i, wOK, oOK, expectFire[i])
			}
		}
	}
}

// TestRealOrdering pins cross-timer fire order on the Real clock:
// AfterFunc callbacks with deadlines spaced 25ms apart — far beyond
// scheduling slack — must run in deadline order, matching
// the time.Timer oracle's order.
func TestRealOrdering(t *testing.T) {
	run := func(newAfterFunc func(d time.Duration, f func())) []int {
		var mu sync.Mutex
		var log []int
		var wg sync.WaitGroup
		order := []int{3, 0, 4, 1, 2} // registration order ≠ deadline order
		for _, idx := range order {
			idx := idx
			wg.Add(1)
			d := time.Duration(30+idx*25) * time.Millisecond
			newAfterFunc(d, func() {
				mu.Lock()
				log = append(log, idx)
				mu.Unlock()
				wg.Done()
			})
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			return nil
		}
		return log
	}
	implLog := run(func(d time.Duration, f func()) { clock.Real{}.AfterFunc(d, f) })
	oracleLog := run(func(d time.Duration, f func()) { refclock.Real{}.AfterFunc(d, f) })
	if implLog == nil || oracleLog == nil {
		t.Fatal("callbacks did not all run")
	}
	for i := range implLog {
		if implLog[i] != i || oracleLog[i] != i {
			t.Fatalf("fire order: clock=%v oracle=%v want ascending", implLog, oracleLog)
		}
	}
}
