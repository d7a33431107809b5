package experiments

import (
	"errors"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/httpx"
	"repro/internal/soap"
)

// errOutOfMemory models the JVM's OutOfMemoryError: "unable to create new
// native thread". The paper's first WS-MsgBox "was spawning too many
// threads ... each thread has local stack allocated in memory and it is
// known Java limitation". The ledger reproduces that failure by
// accounting, not by exhausting the host.
var errOutOfMemory = errors.New("OutOfMemoryError: unable to create new native thread")

// ledger is the modeled JVM's thread budget: each live thread holds a
// native stack (512 KiB on a 2004 JVM), and the memory for stacks runs
// out at capacity threads.
type ledger struct {
	mu        sync.Mutex
	capacity  int
	live      int
	peak      int
	oomEvents int
}

func newLedger(capacity int) *ledger { return &ledger{capacity: capacity} }

// SpawnThread reserves one thread stack. It returns errOutOfMemory when
// the budget is exhausted.
func (l *ledger) SpawnThread() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.live == l.capacity {
		l.oomEvents++
		return errOutOfMemory
	}
	l.live++
	l.peak = max(l.peak, l.live)
	return nil
}

// ReleaseThread returns one thread stack to the budget. Releasing below
// zero is a programming error and panics.
func (l *ledger) ReleaseThread() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.live == 0 {
		panic("experiments: ReleaseThread without matching SpawnThread")
	}
	l.live--
}

// Peak returns the high-water mark of concurrently reserved threads.
func (l *ledger) Peak() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peak
}

// OOMEvents returns how many SpawnThread calls have failed.
func (l *ledger) OOMEvents() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.oomEvents
}

// threadPerMessage fronts a WS-MsgBox with the design §4.3.2 found
// broken: "WS-MsgBox server creates a new thread for each message and
// each thread tries to send a reply message. Possibly thousands of
// threads are created ... That leads to OutOfMemoryExceptions as each
// thread has local stack allocated in memory."
//
// Each delivery POST (a path under /mbox/) charges one thread to the
// ledger. When the ledger is exhausted, the delivery is answered with a
// 500 OutOfMemoryError fault and never reaches the mailbox. Otherwise
// the mailbox serves it, and the thread lives on for linger on clk,
// "trying to send a reply message", before its stack is released. Every
// other request goes straight to the mailbox.
func threadPerMessage(mbox httpx.Handler, l *ledger, clk clock.Clock, linger time.Duration) httpx.Handler {
	return httpx.HandlerFunc(func(ex *httpx.Exchange) {
		if id, ok := strings.CutPrefix(ex.Req.Path, "/mbox/"); !ok || id == "" {
			mbox.Serve(ex)
			return
		}
		if err := l.SpawnThread(); err != nil {
			soap.ReplyFault(ex, httpx.StatusInternalServerError, soap.FaultServer, err.Error())
			return
		}
		mbox.Serve(ex)
		// A timer, not a goroutine: the ledger entry is the thread.
		clk.AfterFunc(linger, l.ReleaseThread)
	})
}
