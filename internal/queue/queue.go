// Package queue provides the FIFO message queues used by the
// MSG-Dispatcher's WsThreads and by WS-MsgBox mailboxes.
//
// The paper's MSG-Dispatcher gives each destination-service thread
// (WsThread) "a First-In-First-Out queue of messages to send"; WS-MsgBox
// stores arriving messages per mailbox until the owner polls. Both need a
// FIFO, optionally bounded, whose producers never block (a full queue
// refuses) and whose consumers may, with a close/drain story, which the
// Go standard library's channels only partially cover (channels cannot be
// inspected, drained after close by multiple readers with size reporting,
// or grown without bound). FIFO is that structure.
package queue

import (
	"errors"
	"sync"
)

// ErrClosed is returned by operations on a closed queue once it is empty
// (for receives) or immediately (for sends).
var ErrClosed = errors.New("queue: closed")

// ErrFull is returned by TryPut on a bounded queue at capacity.
var ErrFull = errors.New("queue: full")

// FIFO is a goroutine-safe first-in-first-out queue of T. A capacity of 0
// means unbounded. The zero value is not usable; construct with New.
type FIFO[T any] struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	items    []T
	head     int // index of the next item to pop; items[:head] are dead
	cap      int // 0 = unbounded
	closed   bool
}

// New returns an empty FIFO. capacity <= 0 means unbounded.
func New[T any](capacity int) *FIFO[T] {
	if capacity < 0 {
		capacity = 0
	}
	q := &FIFO[T]{cap: capacity}
	q.notEmpty = sync.NewCond(&q.mu)
	return q
}

// TryPut appends item without blocking. It returns ErrFull if the queue is
// at capacity or ErrClosed if it is closed.
func (q *FIFO[T]) TryPut(item T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	if q.cap != 0 && q.lenLocked() >= q.cap {
		return ErrFull
	}
	q.items = append(q.items, item)
	q.notEmpty.Signal()
	return nil
}

// TryPutBatch appends a burst of items in one lock transaction, without
// blocking. It admits the longest FIFO prefix that fits — n reports how
// many were taken — and returns ErrFull when items remain (the caller
// owns the tail, exactly as with a refused TryPut) or ErrClosed when the
// queue is closed (n is then 0 and nothing was taken).
func (q *FIFO[T]) TryPutBatch(items []T) (n int, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, ErrClosed
	}
	n = len(items)
	if q.cap != 0 {
		if room := q.cap - q.lenLocked(); n > room {
			n = room
		}
	}
	if n > 0 {
		q.items = append(q.items, items[:n]...)
		if n == 1 {
			q.notEmpty.Signal()
		} else {
			q.notEmpty.Broadcast()
		}
	}
	if n < len(items) {
		return n, ErrFull
	}
	return n, nil
}

// Take removes and returns the oldest item, blocking while the queue is
// empty. After Close, Take keeps returning queued items until the queue
// drains, then returns ErrClosed.
func (q *FIFO[T]) Take() (T, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.lenLocked() == 0 {
		if q.closed {
			var zero T
			return zero, ErrClosed
		}
		q.notEmpty.Wait()
	}
	return q.popLocked(), nil
}

// TryTake removes and returns the oldest item without blocking. ok is
// false if the queue is empty.
func (q *FIFO[T]) TryTake() (item T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.lenLocked() == 0 {
		var zero T
		return zero, false
	}
	return q.popLocked(), true
}

// Drain removes and returns everything currently queued without blocking.
func (q *FIFO[T]) Drain() []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := q.lenLocked()
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, q.popLocked())
	}
	return out
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.lenLocked()
}

// Closed reports whether Close has been called.
func (q *FIFO[T]) Closed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// Close marks the queue closed. Later puts fail with ErrClosed; blocked
// Takes drain remaining items and then fail. Close is idempotent.
func (q *FIFO[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.notEmpty.Broadcast()
}

func (q *FIFO[T]) lenLocked() int { return len(q.items) - q.head }

func (q *FIFO[T]) popLocked() T {
	item := q.items[q.head]
	var zero T
	q.items[q.head] = zero // release for GC
	q.head++
	// Compact once the dead prefix dominates, amortized O(1).
	if q.head > 32 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return item
}
