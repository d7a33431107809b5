package pool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/queue"
)

func TestPoolExecutesTasks(t *testing.T) {
	p := New(Config{Core: 4})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		if err := p.TrySubmit(func() { n.Add(1); wg.Done() }); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	p.Stop()
	if n.Load() != 100 {
		t.Fatalf("executed %d tasks, want 100", n.Load())
	}
}

func TestStopDrainsQueuedTasks(t *testing.T) {
	p := New(Config{Core: 1})
	p.Start()
	var n atomic.Int64
	release := make(chan struct{})
	p.TrySubmit(func() { <-release })
	for i := 0; i < 10; i++ {
		p.TrySubmit(func() { n.Add(1) })
	}
	close(release)
	p.Stop()
	if n.Load() != 10 {
		t.Fatalf("drained %d tasks, want 10", n.Load())
	}
}

func TestSubmitAfterStop(t *testing.T) {
	p := New(Config{Core: 1})
	p.Start()
	p.Stop()
	p.Stop() // idempotent
	if err := p.TrySubmit(func() {}); !errors.Is(err, ErrStopped) {
		t.Fatalf("TrySubmit after Stop = %v, want ErrStopped", err)
	}
}

func TestTrySubmitFullBacklog(t *testing.T) {
	p := New(Config{Core: 1, Backlog: 1})
	p.Start()
	defer p.Stop()
	busy, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	p.TrySubmit(func() { close(busy); <-release }) // occupy the worker
	<-busy
	if err := p.TrySubmit(func() {}); err != nil {
		t.Fatalf("first queued TrySubmit = %v", err)
	}
	if err := p.TrySubmit(func() {}); !errors.Is(err, queue.ErrFull) {
		t.Fatalf("TrySubmit on full backlog = %v, want ErrFull", err)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	p := New(Config{Core: 4})
	p.Start()
	var n atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				if err := p.TrySubmit(func() { n.Add(1) }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	p.Stop()
	if n.Load() != 2000 {
		t.Fatalf("executed %d, want 2000", n.Load())
	}
}

// TestCoreWorkersRunConcurrently checks that Start pre-creates all Core
// workers: Core tasks that each wait for all the others can only finish
// if every one of them is running at once.
func TestCoreWorkersRunConcurrently(t *testing.T) {
	const core = 4
	p := New(Config{Core: core})
	p.Start()
	defer p.Stop()
	var arrived sync.WaitGroup
	arrived.Add(core)
	done := make(chan struct{}, core)
	for i := 0; i < core; i++ {
		if err := p.TrySubmit(func() {
			arrived.Done()
			arrived.Wait()
			done <- struct{}{}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < core; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d core workers ran at once", i, core)
		}
	}
}

// TestPoolNeverGrows checks that a busy pool queues work rather than
// adding workers: no more than Core tasks ever run at once.
func TestPoolNeverGrows(t *testing.T) {
	const core = 2
	p := New(Config{Core: core})
	p.Start()
	var running, peak atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		if err := p.TrySubmit(func() {
			defer wg.Done()
			n := running.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			<-release
			running.Add(-1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	wg.Wait()
	p.Stop()
	if got := peak.Load(); got > core {
		t.Fatalf("peak concurrent tasks = %d, want at most Core = %d", got, core)
	}
}

func TestStartAfterStop(t *testing.T) {
	p := New(Config{Core: 1})
	p.Stop()
	if err := p.Start(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Start after Stop = %v, want ErrStopped", err)
	}
}

// TestTasksQueuedBeforeStartRun checks that tasks accepted before Start
// wait in the backlog and run, in order, once the workers exist.
func TestTasksQueuedBeforeStartRun(t *testing.T) {
	p := New(Config{Core: 1})
	var got []int
	for i := 0; i < 5; i++ {
		if err := p.TrySubmit(func() { got = append(got, i) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	if fmt.Sprint(got) != "[0 1 2 3 4]" {
		t.Fatalf("ran %v, want [0 1 2 3 4]", got)
	}
}
