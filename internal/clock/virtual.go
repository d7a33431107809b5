package clock

import (
	"container/heap"
	"runtime"
	"sync"
	"time"
)

// grace is how long the pump waits (real time) for new registrations
// before concluding the system is quiescent.
const grace = 50 * time.Microsecond

// Virtual is a discrete-event clock. Time only moves when every goroutine
// that interacts with the clock is blocked waiting on it: a background pump
// observes a short quiescence window (no new timer registrations, and on
// Linux no other thread of the process running or in disk wait) and then
// jumps the clock to the earliest pending deadline, firing all timers due at
// that instant.
//
// This "auto-advancing fake clock" lets unmodified production code — the
// dispatcher, the mailbox, the simulated network — run a one-minute workload
// in a few milliseconds of wall time. The quiescence test trades strict
// determinism for not having to instrument every goroutine: it watches the
// clock's own counters and the process's threads, not the goroutines.
// Yielding through the grace window is enough with one processor; with
// several, a goroutine busy on another one (a parse, an fsync, a thread
// the host has preempted) registers nothing for as long as it runs, so on
// Linux the pump also requires every other thread of the process to be
// asleep before it advances (see settled). Elsewhere the grace window is
// the only test, so a CPU-bound phase longer than grace can read as
// quiescence there. Event interleavings are still not reproducible run
// to run, so tests assert shapes with tolerances rather than exact
// traces.
//
// Timers wait on one min-heap (see the package doc); the pump jumps to
// exact deadlines and fires each batch in (deadline, registration) order.
type Virtual struct {
	mu      sync.Mutex
	start   time.Time // the epoch; nowNs counts from here
	nowNs   int64
	timers  timerHeap
	gen     uint64 // bumped on every registration: pump churn check, timer seq
	reads   uint64 // bumped on every Now; pump detects work mid-scan
	stopped bool
	wake    chan struct{} // pump kick

	// coalesce is the virtual window within which distinct deadlines
	// fire in one pump step. Coalescing trades a bounded amount of
	// virtual-time dilation (≤ coalesce per causal hop) for a large
	// reduction in pump steps, which is what makes thousand-client
	// minute-long sweeps run in seconds of wall time.
	coalesce time.Duration

	// scratch recycles the pump's due batch; taken under mu, handed
	// back after the batch fires (Advance may race the pump, in which
	// case the loser allocates its own).
	scratch []dueTimer
}

// dueTimer is one entry of a fire batch, with its deadline copied out
// under the clock's lock: once the lock drops, a Reset may re-arm the
// timer and rewrite its deadline while the batch is still firing.
type dueTimer struct {
	t  *Timer
	at int64
}

// NewVirtual returns a running Virtual clock starting at start. Call Stop
// when the experiment finishes to release the pump goroutine.
func NewVirtual(start time.Time) *Virtual {
	v := &Virtual{
		start:    start,
		wake:     make(chan struct{}, 1),
		coalesce: time.Millisecond,
	}
	go v.pump()
	return v
}

// NewVirtualAt is shorthand for a Virtual clock starting at the Unix epoch
// plus the given offset; experiments use it so logs carry small readable
// timestamps.
func NewVirtualAt(offset time.Duration) *Virtual {
	return NewVirtual(time.Unix(0, 0).Add(offset))
}

// SetCoalesce adjusts the virtual coalescing window (0 disables: every
// distinct deadline gets its own pump step).
func (v *Virtual) SetCoalesce(d time.Duration) {
	v.mu.Lock()
	v.coalesce = d
	v.mu.Unlock()
}

// Stop shuts down the pump goroutine. After Stop, time moves and pending
// timers fire only through Advance.
func (v *Virtual) Stop() {
	v.mu.Lock()
	v.stopped = true
	v.mu.Unlock()
	v.kick()
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.reads++
	return v.start.Add(time.Duration(v.nowNs))
}

// Since implements Clock.
func (v *Virtual) Since(t time.Time) time.Duration { return v.Now().Sub(t) }

// Sleep implements Clock.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		runtime.Gosched()
		return
	}
	<-v.After(d)
}

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	return v.NewTimer(d).C
}

// NewTimer implements Clock.
func (v *Virtual) NewTimer(d time.Duration) *Timer {
	ch := make(chan time.Time, 1)
	t := &Timer{C: ch, ch: ch, v: v, idx: -1}
	v.startTimer(t, d)
	return t
}

// AfterFunc implements Clock.
func (v *Virtual) AfterFunc(d time.Duration, f func()) *Timer {
	t := &Timer{f: f, v: v, idx: -1}
	v.startTimer(t, d)
	return t
}

// startTimer (re-)schedules t to fire d from virtual now as the newest
// registration, reporting whether it was still pending.
func (v *Virtual) startTimer(t *Timer, d time.Duration) bool {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	v.gen++
	t.deadline, t.seq = v.nowNs+int64(d), v.gen
	active := t.idx >= 0
	if active {
		heap.Fix(&v.timers, t.idx)
	} else {
		heap.Push(&v.timers, t)
	}
	v.mu.Unlock()
	v.kick()
	return active
}

// stopTimer unschedules t, reporting whether it was still pending.
func (v *Virtual) stopTimer(t *Timer) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if t.idx < 0 {
		return false
	}
	heap.Remove(&v.timers, t.idx)
	return true
}

// Advance manually moves the clock forward by d, firing every timer whose
// deadline is reached, in deadline order. It is primarily for unit tests
// that want explicit control; the pump handles normal operation.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	target := v.nowNs + int64(d)
	b := v.collectLocked(target)
	v.nowNs = target
	v.mu.Unlock()
	v.fireBatch(b)
}

// Pending reports how many timers are currently registered. Used by tests.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.timers)
}

func (v *Virtual) kick() {
	select {
	case v.wake <- struct{}{}:
	default:
	}
}

// collectLocked pops every timer due by target, in fire order, into the
// recycled batch (or a fresh one when another batch is mid-fire), with
// deadlines copied. Caller holds v.mu.
func (v *Virtual) collectLocked(target int64) []dueTimer {
	b := v.scratch[:0]
	v.scratch = nil
	for len(v.timers) > 0 && v.timers[0].deadline <= target {
		t := heap.Pop(&v.timers).(*Timer)
		b = append(b, dueTimer{t, t.deadline})
	}
	return b
}

// fire delivers one Virtual expiry: the callback on its own goroutine for
// AfterFunc timers, a non-blocking send otherwise (like time.Timer's old
// sendTime — a stale fire may still sit in C, and the clock must never
// block on it).
func (t *Timer) fire(at time.Time) {
	if t.f != nil {
		go t.f()
		return
	}
	select {
	case t.ch <- at:
	default:
	}
}

// fireBatch delivers a collected batch outside the lock — each waiter
// observes its own deadline as the fire time — then hands the batch back
// for reuse.
func (v *Virtual) fireBatch(b []dueTimer) {
	for _, d := range b {
		d.t.fire(v.start.Add(time.Duration(d.at)))
	}
	v.mu.Lock()
	if v.scratch == nil {
		v.scratch = b
	}
	v.mu.Unlock()
}

// pumpMu serializes the quiescence check across every Virtual clock in
// the process. A pump spinning through its check is a running thread to
// every other pump's thread scan, so two unserialized pumps would each
// wait on the other forever; a pump waiting here is parked, not running.
var pumpMu sync.Mutex

// pump advances virtual time whenever the system is quiescent: it samples
// the registration generation counter, yields the processor through the
// grace window, checks that no other thread of the process is running,
// and if no new timers appeared it jumps time to the earliest deadline.
func (v *Virtual) pump() {
	for {
		v.mu.Lock()
		if v.stopped {
			v.mu.Unlock()
			return
		}
		if len(v.timers) == 0 {
			v.mu.Unlock()
			<-v.wake
			continue
		}
		genBefore := v.gen
		v.mu.Unlock()

		pumpMu.Lock()
		// Let runnable goroutines make progress: they may register
		// earlier deadlines or consume data that was just delivered.
		// Churn already answers what the thread scan would ask. A
		// goroutine that wakes while the scan is between threads reads
		// the clock before it touches the simulation, so a Now during
		// the scan voids it.
		quiesce()
		gen, readsBefore := v.counters()
		quiet := gen == genBefore && settled()

		v.mu.Lock()
		if v.stopped {
			v.mu.Unlock()
			pumpMu.Unlock()
			return
		}
		if !quiet || v.gen != genBefore || v.reads != readsBefore || len(v.timers) == 0 {
			// Work in flight or churn during the window; re-observe.
			v.mu.Unlock()
			pumpMu.Unlock()
			continue
		}
		// Advance to the earliest deadline, sweeping in everything
		// within the coalescing window; the clock lands on the
		// latest deadline actually fired, so no waiter ever
		// observes a time before its own deadline.
		target := v.timers[0].deadline + int64(v.coalesce)
		b := v.collectLocked(target)
		if n := len(b); n > 0 && b[n-1].at > v.nowNs {
			v.nowNs = b[n-1].at
		}
		v.mu.Unlock()
		pumpMu.Unlock()
		v.fireBatch(b)
	}
}

// counters returns the timer registration and clock read counters.
func (v *Virtual) counters() (gen, reads uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.gen, v.reads
}

// quiesce yields the processor repeatedly for roughly the grace duration.
// It deliberately never calls time.Sleep: OS timer granularity (≥50µs,
// often worse) would dominate every pump step and slow large simulations
// by orders of magnitude. Spinning with Gosched keeps a step in the
// single-digit microseconds when the system is already quiet.
func quiesce() {
	start := time.Now()
	for {
		runtime.Gosched()
		if time.Since(start) >= grace {
			return
		}
	}
}

// settled reports whether, after quiesce, no other thread of the process
// is doing work. Yielding only drains the pump's own processor; with
// several processors a goroutine mid-parse or mid-fsync on another one —
// or on a thread the host has preempted — registers no timer for as long
// as it runs, and the grace window alone would read that as quiescence.
// The Go scheduler keeps a thread awake (running or queued for a CPU)
// while any goroutine is runnable on its processor, so a scan that finds
// every other thread asleep means no goroutine is running or runnable.
// The scan reads threads one by one, so a hand-off between two threads
// can slip between the reads; a second scan straight after closes that
// gap. Between attempts the pump naps rather than yields, so the
// scheduler threads its last Gosched woke can go back to sleep. Where
// thread states cannot be read, the grace window is the only test.
func settled() bool {
	for try := 0; try < 8; try++ {
		nap()
		idle, ok := otherThreadsIdle()
		if !ok {
			return true
		}
		if idle {
			if idle, _ = otherThreadsIdle(); idle {
				return true
			}
		}
	}
	return false
}

// timerHeap is a container/heap min-heap of scheduled Virtual timers by
// (deadline, seq), keeping each timer's idx current.
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.idx = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old) - 1
	t := old[n]
	old[n] = nil
	t.idx = -1
	*h = old[:n]
	return t
}
