package clock

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestVirtualWaitsForBusyThread pins the thread scan: a goroutine doing
// 20ms of CPU work on another processor registers no timer, so the grace
// window alone reads it as quiescence and jumps virtual time to the next
// deadline — the one-second timeout below — while the work is still in
// flight. The pump must hold time still until the worker is done.
func TestVirtualWaitsForBusyThread(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	v := NewVirtual(time.Unix(0, 0))
	defer v.Stop()
	timeout := v.After(time.Second)
	done := make(chan struct{})
	go func() {
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-timeout:
		t.Fatal("virtual time jumped past a pending timeout while a goroutine was running")
	}
	if got := v.Since(time.Unix(0, 0)); got != 0 {
		t.Fatalf("virtual time advanced %v during the work", got)
	}
}

// TestVirtualClocksShareTheProcess runs two simulations side by side.
// Each pump's spinning thread is a busy thread to the other's scan, so
// without pumpMu neither would ever advance.
func TestVirtualClocksShareTheProcess(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		v := NewVirtual(time.Unix(0, 0))
		defer v.Stop()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v.Sleep(time.Millisecond)
			}
		}()
	}
	waitGroupWithin(t, &wg, 10*time.Second)
}
