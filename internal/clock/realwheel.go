package clock

import (
	"math"
	"sync"
	"time"
)

// realTick is the Real wheel's granularity: wake-ups round up to 1ms
// boundaries, so timers due within the same millisecond fire in one
// batch. A fire is never early and at most one tick (plus scheduling
// latency) late — the same order of slack the OS timer behind
// time.Timer carries.
const realTick = int64(time.Millisecond)

// realWheel is the process-wide wheel behind Real timers: one lazily
// started goroutine owns one runtime timer and drives every Real
// NewTimer/AfterFunc in the process, so timer churn costs list links
// under a mutex instead of runtime-timer heap traffic, and 10k pending
// timers still mean exactly one extra goroutine.
type realWheel struct {
	mu         sync.Mutex
	wh         wheel
	started    bool
	base       time.Time // monotonic anchor; nowNs is time.Since(base)
	sleepUntil int64     // wake target the loop is sleeping toward
	wake       chan struct{}

	scratch []*wtimer // due-batch reuse, owned by the loop
}

var wallWheel = &realWheel{wake: make(chan struct{}, 1)}

func (rw *realWheel) nowNs() int64 { return int64(time.Since(rw.base)) }

// schedule (re-)arms t to fire d from now, reporting whether it was
// still pending — Timer.Reset's verdict. It starts the wheel goroutine
// on first use and kicks it only when the new deadline undercuts the
// loop's current wake target.
func (rw *realWheel) schedule(t *Timer, d time.Duration) (wasActive bool) {
	if d < 0 {
		d = 0
	}
	rw.mu.Lock()
	if rw.base.IsZero() {
		rw.base = time.Now()
		rw.wh.init(realTick)
		rw.sleepUntil = math.MaxInt64
	}
	wasActive = rw.wh.cancel(&t.w)
	deadline := rw.nowNs() + int64(d)
	if deadline < 0 { // duration overflow; park at the far horizon
		deadline = math.MaxInt64
	}
	rw.wh.schedule(&t.w, deadline)
	start := !rw.started
	if start {
		rw.started = true
	}
	kick := deadline < rw.sleepUntil
	rw.mu.Unlock()
	if start {
		go rw.loop()
	} else if kick {
		select {
		case rw.wake <- struct{}{}:
		default:
		}
	}
	return wasActive
}

func (rw *realWheel) stopTimer(t *Timer) bool {
	rw.mu.Lock()
	active := rw.wh.cancel(&t.w)
	rw.mu.Unlock()
	return active
}

func (rw *realWheel) resetTimer(t *Timer, d time.Duration) bool {
	return rw.schedule(t, d)
}

// loop is the wheel goroutine: sleep on one runtime timer until the
// earliest deadline's tick boundary (or a kick announces an earlier
// one), collect the due batch under the lock, fire it outside. It runs
// for the life of the process once the first Real timer is created.
func (rw *realWheel) loop() {
	sleeper := time.NewTimer(time.Hour)
	if !sleeper.Stop() {
		<-sleeper.C
	}
	for {
		rw.mu.Lock()
		e, ok := rw.wh.earliest()
		if !ok {
			rw.sleepUntil = math.MaxInt64
			rw.mu.Unlock()
			<-rw.wake
			continue
		}
		now := rw.nowNs()
		if e > now {
			// Round the wake-up to the next tick boundary: everything
			// due within the tick fires in one batch.
			wakeAt := (e + realTick - 1) / realTick * realTick
			rw.sleepUntil = wakeAt
			rw.mu.Unlock()
			sleeper.Reset(time.Duration(wakeAt - now))
			select {
			case <-sleeper.C:
			case <-rw.wake:
				if !sleeper.Stop() {
					<-sleeper.C
				}
			}
			continue
		}
		due := rw.scratch[:0]
		due = rw.wh.advanceTo(now, due)
		rw.scratch = due[:0]
		rw.sleepUntil = -1 // collecting; new arrivals need no kick
		// Sort under the lock: a Reset may rewrite an entry's deadline
		// as soon as it drops.
		sortDue(due)
		rw.mu.Unlock()
		at := rw.base.Add(time.Duration(now))
		for _, entry := range due {
			entry.t.fire(at)
		}
	}
}
