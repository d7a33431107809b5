package queue

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestFIFOOrder(t *testing.T) {
	q := New[int](0)
	for i := 0; i < 100; i++ {
		if err := q.TryPut(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		v, err := q.Take()
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("Take = %d, want %d", v, i)
		}
	}
}

func TestTryTakeEmpty(t *testing.T) {
	q := New[string](0)
	if _, ok := q.TryTake(); ok {
		t.Fatal("TryTake on empty queue returned ok")
	}
}

func TestBoundedTryPut(t *testing.T) {
	q := New[int](2)
	if err := q.TryPut(1); err != nil {
		t.Fatal(err)
	}
	if err := q.TryPut(2); err != nil {
		t.Fatal(err)
	}
	if err := q.TryPut(3); err != ErrFull {
		t.Fatalf("TryPut on full queue = %v, want ErrFull", err)
	}
	q.TryTake()
	if err := q.TryPut(3); err != nil {
		t.Fatalf("TryPut after drain = %v", err)
	}
}

func TestTakeBlocksUntilPut(t *testing.T) {
	q := New[int](0)
	got := make(chan int, 1)
	go func() {
		v, err := q.Take()
		if err != nil {
			t.Error(err)
		}
		got <- v
	}()
	time.Sleep(10 * time.Millisecond)
	if err := q.TryPut(7); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 7 {
			t.Fatalf("Take = %d, want 7", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Take never unblocked")
	}
}

func TestCloseDrainsThenErrClosed(t *testing.T) {
	q := New[int](0)
	q.TryPut(1)
	q.TryPut(2)
	q.Close()
	if err := q.TryPut(3); err != ErrClosed {
		t.Fatalf("TryPut after Close = %v, want ErrClosed", err)
	}
	if v, err := q.Take(); err != nil || v != 1 {
		t.Fatalf("Take = %d, %v", v, err)
	}
	if v, err := q.Take(); err != nil || v != 2 {
		t.Fatalf("Take = %d, %v", v, err)
	}
	if _, err := q.Take(); err != ErrClosed {
		t.Fatalf("Take on drained closed queue = %v, want ErrClosed", err)
	}
}

func TestCloseUnblocksTakers(t *testing.T) {
	q := New[int](0)
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := q.Take()
			errs <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	q.Close()
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if err != ErrClosed {
				t.Fatalf("Take = %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("blocked Take not released by Close")
		}
	}
}

func TestDrain(t *testing.T) {
	q := New[int](0)
	for i := 0; i < 5; i++ {
		q.TryPut(i)
	}
	got := q.Drain()
	if len(got) != 5 {
		t.Fatalf("Drain returned %d items", len(got))
	}
	if q.Len() != 0 {
		t.Fatalf("Len after Drain = %d", q.Len())
	}
	if q.Drain() != nil {
		t.Fatal("Drain on empty queue should return nil")
	}
}

func TestLen(t *testing.T) {
	q := New[int](0)
	for i := 0; i < 7; i++ {
		q.TryPut(i)
	}
	q.Take()
	q.Take()
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
}

func TestCompactionPreservesOrder(t *testing.T) {
	q := New[int](0)
	next := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			q.TryPut(round*20 + i)
		}
		for i := 0; i < 15; i++ {
			v, err := q.Take()
			if err != nil {
				t.Fatal(err)
			}
			if v != next {
				t.Fatalf("Take = %d, want %d", v, next)
			}
			next++
		}
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	q := New[int](64)
	const producers, perProducer, consumers = 8, 500, 8
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; {
				switch err := q.TryPut(1); err {
				case nil:
					i++
				case ErrFull:
					runtime.Gosched() // the consumers make room
				default:
					t.Error(err)
					return
				}
			}
		}()
	}
	var consumed sync.WaitGroup
	total := make(chan int, consumers)
	for c := 0; c < consumers; c++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			sum := 0
			for {
				v, err := q.Take()
				if err == ErrClosed {
					total <- sum
					return
				}
				sum += v
			}
		}()
	}
	wg.Wait()
	q.Close()
	consumed.Wait()
	close(total)
	sum := 0
	for s := range total {
		sum += s
	}
	if sum != producers*perProducer {
		t.Fatalf("consumed %d items, want %d", sum, producers*perProducer)
	}
}

// Property: any interleaving of puts and takes preserves FIFO order of the
// values actually taken.
func TestQuickFIFOProperty(t *testing.T) {
	f := func(values []int, takes uint8) bool {
		q := New[int](0)
		for _, v := range values {
			q.TryPut(v)
		}
		n := int(takes)
		if n > len(values) {
			n = len(values)
		}
		for i := 0; i < n; i++ {
			got, err := q.Take()
			if err != nil || got != values[i] {
				return false
			}
		}
		return q.Len() == len(values)-n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestTryPutBatch pins the one-lock burst admission: the longest FIFO
// prefix that fits is admitted, the caller keeps the tail, and a closed
// queue takes nothing.
func TestTryPutBatch(t *testing.T) {
	q := New[int](5)
	if n, err := q.TryPutBatch([]int{1, 2, 3}); n != 3 || err != nil {
		t.Fatalf("TryPutBatch fit = (%d, %v), want (3, nil)", n, err)
	}
	// Only 2 slots remain: prefix {4, 5} admitted, 6 stays with caller.
	if n, err := q.TryPutBatch([]int{4, 5, 6}); n != 2 || err != ErrFull {
		t.Fatalf("TryPutBatch overflow = (%d, %v), want (2, ErrFull)", n, err)
	}
	for want := 1; want <= 5; want++ {
		got, err := q.Take()
		if err != nil || got != want {
			t.Fatalf("Take = (%d, %v), want %d (FIFO prefix order)", got, err, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}

	// Unbounded queues admit everything.
	u := New[int](0)
	if n, err := u.TryPutBatch(make([]int, 1000)); n != 1000 || err != nil {
		t.Fatalf("unbounded TryPutBatch = (%d, %v)", n, err)
	}

	// Empty batch is a no-op.
	if n, err := q.TryPutBatch(nil); n != 0 || err != nil {
		t.Fatalf("empty TryPutBatch = (%d, %v)", n, err)
	}

	q.Close()
	if n, err := q.TryPutBatch([]int{9}); n != 0 || err != ErrClosed {
		t.Fatalf("closed TryPutBatch = (%d, %v), want (0, ErrClosed)", n, err)
	}
}

// TestTryPutBatchWakesAllTakers checks the Broadcast on multi-item
// admission reaches every parked consumer.
func TestTryPutBatchWakesAllTakers(t *testing.T) {
	q := New[int](0)
	const consumers = 4
	got := make(chan int, consumers)
	for i := 0; i < consumers; i++ {
		go func() {
			v, err := q.Take()
			if err == nil {
				got <- v
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let consumers park
	if n, err := q.TryPutBatch([]int{10, 20, 30, 40}); n != 4 || err != nil {
		t.Fatalf("TryPutBatch = (%d, %v)", n, err)
	}
	sum := 0
	for i := 0; i < consumers; i++ {
		select {
		case v := <-got:
			sum += v
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of %d takers woke", i, consumers)
		}
	}
	if sum != 100 {
		t.Fatalf("takers got sum %d, want 100", sum)
	}
}

func TestClosedReportsClose(t *testing.T) {
	q := New[int](0)
	if q.Closed() {
		t.Fatal("new queue reports Closed")
	}
	q.Close()
	q.Close() // idempotent
	if !q.Closed() {
		t.Fatal("closed queue does not report Closed")
	}
}

func TestNegativeCapacityIsUnbounded(t *testing.T) {
	q := New[int](-1)
	for i := 0; i < 1000; i++ {
		if err := q.TryPut(i); err != nil {
			t.Fatalf("TryPut %d on New(-1) = %v, want unbounded", i, err)
		}
	}
	if q.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", q.Len())
	}
}
