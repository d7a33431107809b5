package main

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/xmlsoap"
)

// The benchmark's self-test: short smokes of every workload must verify
// every exchange and leave nothing behind, and injected backend faults
// must show up as failed exchanges. Run with
//
//	cd perfbench && go test -count=1 .

var workloads = []string{"rpc-echo", "msg-reply", "mbox-durable"}

func smoke(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: 7, seconds: time.Second, trace: trace,
		setups: 2, warmup: 200 * time.Millisecond, drain: 3 * time.Second,
		dir: t.TempDir(), backlogBoxes: 10, backlogMsgs: 20, backlogSize: 512,
	}
}

// settle polls f until it reports true or the deadline passes.
func settle(f func() bool) bool {
	for end := time.Now().Add(10 * time.Second); time.Now().Before(end); time.Sleep(20 * time.Millisecond) {
		if f() {
			return true
		}
	}
	return f()
}

func TestSmokeLeavesNothingBehind(t *testing.T) {
	xmlsoap.EnablePoolCheck()
	// One unchecked run starts whatever the process keeps for its
	// lifetime (the wall clock's timer wheel).
	if _, err := run(smoke(t, "rpc-echo", false)); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(w, func(t *testing.T) {
				settle(func() bool { return xmlsoap.PoolLive() == 0 })
				baseLive, baseG := xmlsoap.PoolLive(), runtime.NumGoroutine()
				cfg := smoke(t, w, trace)
				pending := -1
				cfg.atEnd = func(st *stack) { pending = st.srv.Msg.PendingLen() }
				o, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !o.correct || o.tally.failed() != 0 || o.tally.verified == 0 {
					t.Fatalf("exchanges not all verified: %+v", o.tally)
				}
				if pending != 0 {
					t.Errorf("msgdisp.PendingLen() = %d after the drain, want 0", pending)
				}
				if !settle(func() bool { return xmlsoap.PoolLive() == baseLive }) {
					t.Errorf("PoolLive = %d after teardown, want %d", xmlsoap.PoolLive(), baseLive)
				}
				if !settle(func() bool { return runtime.NumGoroutine() <= baseG }) {
					t.Errorf("goroutines = %d after teardown, want <= %d", runtime.NumGoroutine(), baseG)
				}
			})
		}
	}
}

// TestChecksBite proves the verification is live: a backend that drops
// one reply in 100, or corrupts one body in 100, must raise error_frac.
func TestChecksBite(t *testing.T) {
	for _, w := range []string{"rpc-echo", "msg-reply"} {
		for _, f := range []struct {
			name string
			f    *fault
		}{
			{"drop", &fault{dropEvery: 100}},
			{"corrupt", &fault{corruptEvery: 100}},
		} {
			t.Run(w+"/"+f.name, func(t *testing.T) {
				cfg := smoke(t, w, false)
				cfg.setups = 1
				// The set-up exchange is the first message the backend
				// sees; the faults start after it.
				cfg.fault = f.f
				o, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				errFrac := float64(o.tally.failed()) / float64(o.tally.attempted)
				if errFrac <= 0 {
					t.Fatalf("error_frac = 0 with an injected %s fault: %+v", f.name, o.tally)
				}
				if f.name == "corrupt" && (o.correct || o.tally.corrupt == 0) {
					t.Fatalf("corrupt bodies not flagged: %+v", o.tally)
				}
				t.Logf("error_frac %.4f: %+v", errFrac, o.tally)
			})
		}
	}
}
