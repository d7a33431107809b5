package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Exchange states in a ledger.
const (
	stOutstanding uint8 = iota + 1
	stDone
	stFailed
)

// sample is one verified completion, in ns since the run's origin.
type sample struct{ send, end int64 }

// ringSize is how many recent exchanges a ledger remembers per sender:
// far more than any window, so a duplicate of a recent exchange is
// recognised as such; an older one still counts as unknown.
const ringSize = 4096

type slot struct {
	seq     int64
	sent    int64
	payload int32
	state   uint8
}

// ledger does one sender's exactly-once accounting: every exchange is
// begun once, and must then be completed once with the right body or
// fail. Replies that relate to nothing outstanding are duplicates (the
// exchange already ended) or unknown (it never began). Its memory is
// fixed — a ring of recent exchanges and an off-heap sample log — so the
// generator's bookkeeping neither grows the heap the benchmark reports
// nor paces the collector of the process under test.
type ledger struct {
	mu          sync.Mutex
	ring        []slot
	begun       int64
	outstanding int
	samples     *sampleLog

	refused, corrupt, dup, unknown int64

	// slots holds one token per exchange the sender may still start
	// (its closed-loop window); completions and failures return one.
	slots chan struct{}
}

func newLedger(window int, samples *sampleLog) *ledger {
	l := &ledger{ring: make([]slot, ringSize), samples: samples, slots: make(chan struct{}, window)}
	for i := range l.ring {
		l.ring[i].seq = -1
	}
	for i := 0; i < window; i++ {
		l.slots <- struct{}{}
	}
	return l
}

// slot returns seq's ring entry if the ring still remembers seq.
func (l *ledger) slot(seq int) *slot {
	if seq < 0 {
		return nil
	}
	s := &l.ring[seq%ringSize]
	if s.seq != int64(seq) {
		return nil
	}
	return s
}

func (l *ledger) begin(seq int, payload int, at int64) {
	l.mu.Lock()
	s := &l.ring[seq%ringSize]
	if s.seq >= 0 && s.state == stOutstanding {
		// Evicted while still outstanding: it can never complete now.
		l.outstanding--
		l.unknown++
	}
	*s = slot{seq: int64(seq), sent: at, payload: int32(payload), state: stOutstanding}
	l.begun++
	l.outstanding++
	l.mu.Unlock()
}

func (l *ledger) release() {
	select {
	case l.slots <- struct{}{}:
	default:
	}
}

// fail ends an exchange the stack refused or lost on the send leg.
func (l *ledger) fail(seq int) {
	l.mu.Lock()
	if s := l.slot(seq); s != nil && s.state == stOutstanding {
		s.state = stFailed
		l.outstanding--
		l.refused++
	}
	l.mu.Unlock()
	l.release()
}

// expect returns the payload index of a begun exchange.
func (l *ledger) expect(seq int) (int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.slot(seq); s != nil {
		return int(s.payload), true
	}
	return 0, false
}

// complete ends an exchange with its reply; ok says whether the reply
// was byte-equal to what was sent. It reports whether this was the
// exchange's first completion.
func (l *ledger) complete(seq int, ok bool, at int64) bool {
	l.mu.Lock()
	first := false
	s := l.slot(seq)
	switch {
	case s == nil:
		l.unknown++
	case s.state != stOutstanding:
		l.dup++
	default:
		first = true
		s.state = stDone
		l.outstanding--
		if ok {
			l.samples.add(sample{send: s.sent, end: at})
		} else {
			l.corrupt++
		}
	}
	l.mu.Unlock()
	if first {
		l.release()
	}
	return first
}

func (l *ledger) pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.outstanding
}

// sampleLog is an append-only log of completions kept outside the Go
// heap (an anonymous mapping, committed page by page as it fills).
type sampleLog struct {
	buf []sample
	raw []byte
}

// newSampleLog maps room for n samples; small logs live on the heap.
func newSampleLog(n int) (*sampleLog, error) {
	if n <= 1<<10 {
		return &sampleLog{buf: make([]sample, 0, n)}, nil
	}
	size := n * int(unsafe.Sizeof(sample{}))
	raw, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("sample log: %w", err)
	}
	return &sampleLog{buf: unsafe.Slice((*sample)(unsafe.Pointer(&raw[0])), n)[:0], raw: raw}, nil
}

// add appends s; a full log drops it (the run is then longer than the
// log was sized for, which sizing rules out).
func (sl *sampleLog) add(s sample) {
	if len(sl.buf) < cap(sl.buf) {
		sl.buf = append(sl.buf, s)
	}
}

func (sl *sampleLog) free() {
	if sl.raw != nil {
		syscall.Munmap(sl.raw)
		sl.raw, sl.buf = nil, nil
	}
}

// waitDrained waits until nothing is outstanding or the deadline passes.
func waitDrained(ls []*ledger, deadline time.Duration) {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		n := 0
		for _, l := range ls {
			n += l.pending()
		}
		if n == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tally sums the ledgers' outcomes.
type tally struct {
	attempted, verified                     int64
	refused, corrupt, dup, unknown, missing int64
}

func (t tally) failed() int64 { return t.refused + t.corrupt + t.dup + t.unknown + t.missing }

func tallyOf(ls []*ledger) tally {
	var t tally
	for _, l := range ls {
		l.mu.Lock()
		t.attempted += l.begun
		t.verified += int64(len(l.samples.buf))
		t.refused += l.refused
		t.corrupt += l.corrupt
		t.dup += l.dup
		t.unknown += l.unknown
		t.missing += int64(l.outstanding)
		l.mu.Unlock()
	}
	return t
}
