// Package pool provides the fixed-size worker pool behind the
// MSG-Dispatcher's CxThreads and the asynchronous echo service's reply
// workers.
//
// The paper's MSG-Dispatcher "manages two pools of threads (the sizes of
// the pools are configurable)" and pre-creates them. Pool mirrors that:
// Core workers, started together by Start, consume a bounded FIFO of
// tasks. The pool never grows or shrinks; a full backlog refuses the
// task (TrySubmit returns queue.ErrFull) and the caller turns the refusal
// into its own overload answer.
package pool

import (
	"errors"
	"sync"

	"repro/internal/queue"
)

// ErrStopped is returned by TrySubmit after Stop.
var ErrStopped = errors.New("pool: stopped")

// Task is a unit of work executed by a pool worker.
type Task func()

// Config controls a Pool.
type Config struct {
	// Core is the number of workers pre-created at Start. The paper's
	// dispatcher pre-creates its CxThreads and WsThreads.
	Core int
	// Backlog bounds the task queue; 0 means unbounded.
	Backlog int
}

// Pool executes Tasks on a fixed set of worker goroutines.
type Pool struct {
	cfg   Config
	tasks *queue.FIFO[Task]

	mu      sync.Mutex
	started bool
	stopped bool
	done    sync.WaitGroup
}

// New returns an unstarted pool with the given configuration.
func New(cfg Config) *Pool {
	if cfg.Core < 1 {
		cfg.Core = 1
	}
	return &Pool{cfg: cfg, tasks: queue.New[Task](cfg.Backlog)}
}

// Start pre-creates the core workers. It is a no-op when already started.
func (p *Pool) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return nil
	}
	if p.stopped {
		return ErrStopped
	}
	p.started = true
	p.done.Add(p.cfg.Core)
	for i := 0; i < p.cfg.Core; i++ {
		go p.run()
	}
	return nil
}

// TrySubmit enqueues a task without blocking. It returns queue.ErrFull when
// the backlog is at capacity (callers translate this into a dropped
// message) or ErrStopped after Stop.
func (p *Pool) TrySubmit(t Task) error {
	err := p.tasks.TryPut(t)
	if err == queue.ErrClosed {
		return ErrStopped
	}
	return err
}

// Stop closes the task queue, lets workers drain remaining tasks, and
// waits for them to exit. Stop is idempotent.
func (p *Pool) Stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.tasks.Close()
	p.done.Wait()
}

func (p *Pool) run() {
	defer p.done.Done()
	for {
		t, err := p.tasks.Take()
		if err != nil {
			return
		}
		t()
	}
}
