package msgbox

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/queue"
	"repro/internal/soap"
)

// manualService starts an in-memory service on a Virtual clock whose
// pump is stopped: time moves only when the test calls Advance, so a
// held take returns on a park, a release or an Advance, never on its own.
func manualService(t testing.TB, cfg Config) (*clock.Virtual, *Service) {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	clk.Stop()
	cfg.Clock = clk
	cfg.BaseURL = "http://po:9200"
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return clk, s
}

// addBox registers an empty mailbox with s, as createMsgBox would.
func addBox(s *Service, id string) *Mailbox {
	mb := &Mailbox{ID: id, Token: "token-" + id, msgs: queue.New[boxMsg](s.cfg.BoxCap)}
	s.boxes.Put(mb.ID, mb)
	return mb
}

// takeAsync runs s.take on its own goroutine.
func takeAsync(s *Service, mb *Mailbox, max int, wait time.Duration) <-chan []boxMsg {
	got := make(chan []boxMsg, 1)
	go func() { got <- s.take(mb, max, wait) }()
	return got
}

// recv returns the take's result, failing the test if it never comes
// (a lost wake-up would otherwise hang it).
func recv(t *testing.T, got <-chan []boxMsg) []boxMsg {
	t.Helper()
	select {
	case msgs := <-got:
		return msgs
	case <-time.After(10 * time.Second):
		t.Fatal("take never returned")
		return nil
	}
}

// awaitWaiting returns once a take has registered as waiting on mb.
func awaitWaiting(mb *Mailbox) {
	for mb.wake.Load() == nil {
		runtime.Gosched()
	}
}

func TestLongPollWakesOnPark(t *testing.T) {
	clk, s := manualService(t, Config{})
	mb := addBox(s, "a")
	t0 := clk.Now()
	got := takeAsync(s, mb, 16, 5*time.Second)
	awaitWaiting(mb)
	s.storeMessage(mb, []byte("late"))
	msgs := recv(t, got)
	if len(msgs) != 1 || string(msgs[0].payload) != "late" {
		t.Fatalf("take = %v, want the message parked after it began", msgs)
	}
	if d := clk.Since(t0); d != 0 {
		t.Fatalf("take returned %v after it began, want 0 (woken by the park)", d)
	}
	if n := clk.Pending(); n != 0 {
		t.Fatalf("%d timers left pending after the take returned", n)
	}
}

func TestLongPollExpiresEmpty(t *testing.T) {
	clk, s := manualService(t, Config{})
	mb := addBox(s, "a")
	const wait = 2 * time.Second
	t0 := clk.Now()
	got := takeAsync(s, mb, 16, wait)
	awaitWaiting(mb)
	clk.Advance(wait - time.Nanosecond)
	select {
	case msgs := <-got:
		t.Fatalf("take returned %v before its wait expired", msgs)
	default:
	}
	clk.Advance(time.Nanosecond)
	if msgs := recv(t, got); len(msgs) != 0 {
		t.Fatalf("take = %v, want nothing", msgs)
	}
	if d := clk.Since(t0); d != wait {
		t.Fatalf("take expired after %v, want exactly %v", d, wait)
	}
}

func TestLongPollReleasedByDestroyAndStop(t *testing.T) {
	clk, s := manualService(t, Config{})
	destroyed, stopped := addBox(s, "destroyed"), addBox(s, "stopped")
	t0 := clk.Now()
	onDestroyed := takeAsync(s, destroyed, 16, MaxTakeWait)
	onStopped := takeAsync(s, stopped, 16, MaxTakeWait)
	awaitWaiting(destroyed)
	awaitWaiting(stopped)

	s.destroy(destroyed)
	if msgs := recv(t, onDestroyed); len(msgs) != 0 {
		t.Fatalf("take on a destroyed box = %v", msgs)
	}
	s.Stop()
	if msgs := recv(t, onStopped); len(msgs) != 0 {
		t.Fatalf("take on a stopped service = %v", msgs)
	}
	if d := clk.Since(t0); d != 0 {
		t.Fatalf("released takes returned after %v, want 0", d)
	}
	if n := clk.Pending(); n != 0 {
		t.Fatalf("%d timers left pending after release", n)
	}
	// A take that starts on a released box returns at once too.
	if msgs := recv(t, takeAsync(s, destroyed, 16, MaxTakeWait)); len(msgs) != 0 {
		t.Fatalf("take after destroy = %v", msgs)
	}
}

func TestLongPollConcurrentTakers(t *testing.T) {
	const takers, depositors, each = 4, 4, 50
	const total = depositors * each
	_, s := manualService(t, Config{})
	mb := addBox(s, "shared")

	// Sized to the number of sends: each batch carries at least one
	// message, so there are at most total of them.
	batches := make(chan []boxMsg, total)
	var tw sync.WaitGroup
	for i := 0; i < takers; i++ {
		tw.Add(1)
		go func() {
			defer tw.Done()
			for {
				// The clock never moves, so only a park or the release
				// below ends a wait; an empty take means released.
				msgs := s.take(mb, 3, time.Hour)
				if len(msgs) == 0 {
					return
				}
				batches <- msgs
			}
		}()
	}
	var dw sync.WaitGroup
	for d := 0; d < depositors; d++ {
		dw.Add(1)
		go func() {
			defer dw.Done()
			for i := 0; i < each; i++ {
				s.storeMessage(mb, []byte(fmt.Sprintf("%d-%d", d, i)))
			}
		}()
	}
	dw.Wait()

	seen := make(map[string]bool, total)
	for len(seen) < total {
		var msgs []boxMsg
		select {
		case msgs = <-batches:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d messages taken; the rest never came", len(seen), total)
		}
		for _, m := range msgs {
			if seen[string(m.payload)] {
				t.Fatalf("message %s taken twice", m.payload)
			}
			seen[string(m.payload)] = true
		}
	}
	s.destroy(mb)
	released := make(chan struct{})
	go func() { tw.Wait(); close(released) }()
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("destroy did not release the waiting takers")
	}
	close(batches)
	for msgs := range batches {
		t.Fatalf("%d messages taken beyond the %d parked", len(msgs), total)
	}
	if s.Stored.Value() != total || s.Taken.Value() != total {
		t.Fatalf("Stored = %d, Taken = %d, want %d each", s.Stored.Value(), s.Taken.Value(), total)
	}
}

func TestLongPollWaitParam(t *testing.T) {
	clk, s := manualService(t, Config{})
	mb := addBox(s, "a")
	if msgs := s.take(mb, 16, 0); len(msgs) != 0 {
		t.Fatalf("take = %v", msgs)
	}
	if n := clk.Pending(); n != 0 {
		t.Fatalf("a take without a wait armed %d timers", n)
	}

	capMs := strconv.FormatInt(MaxTakeWait.Milliseconds(), 10)
	for _, tc := range []struct {
		wait string // "" = no wait parameter
		want time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"-5", 0},
		{"soon", 0},
		{"250", 250 * time.Millisecond},
		{capMs, MaxTakeWait},
		{capMs + "1", MaxTakeWait},
		{"99999999999999999999999", MaxTakeWait},
	} {
		params := []soap.Param{{Name: "boxId", Value: "a"}}
		if tc.wait != "" {
			params = append(params, soap.Param{Name: "wait", Value: tc.wait})
		}
		raw, _ := soap.AppendRPC(nil, soap.V11, ServiceNS, OpTake, params...)
		call, _, err := soap.DecodeRPC(raw, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := takeWait(&call); got != tc.want {
			t.Errorf("wait=%q: takeWait = %v, want %v", tc.wait, got, tc.want)
		}
	}
}

// TestLongPollOverRPC drives takeMessages over a connection on a running
// Virtual clock: without a wait an empty take answers in one round trip;
// with one it answers count=0 once the wait has run out.
func TestLongPollOverRPC(t *testing.T) {
	r := newRig(t, Config{})
	id, token, _ := r.create(t)
	take := func(wait string) (count string, took time.Duration) {
		t.Helper()
		params := []soap.Param{{Name: "boxId", Value: id}, {Name: "token", Value: token}}
		if wait != "" {
			params = append(params, soap.Param{Name: "wait", Value: wait})
		}
		t0 := r.clk.Now()
		results, resp := r.rpc(t, OpTake, params...)
		if results == nil {
			t.Fatalf("take failed: %d %s", resp.Status, resp.Body)
		}
		return results[0].Value, r.clk.Since(t0)
	}
	if count, took := take(""); count != "0" || took >= 100*time.Millisecond {
		t.Fatalf("take without wait: count=%s after %v, want 0 within one round trip", count, took)
	}
	if count, took := take("1500"); count != "0" || took < 1500*time.Millisecond || took >= 1600*time.Millisecond {
		t.Fatalf("take with wait=1500: count=%s after %v, want 0 just after 1.5s", count, took)
	}
}

func TestLongPollAfterRestart(t *testing.T) {
	const n = 100
	dir := filepath.Join(t.TempDir(), "mbox")
	parkBacklog(t, dir, n, parkedEnvelope(256))
	st := openDurable(t, dir)
	defer st.Close()
	clk, s := manualService(t, Config{Store: st, BoxCap: n})
	var mb *Mailbox
	s.boxes.Range(func(_ string, b *Mailbox) bool { mb = b; return false })
	if mb == nil {
		t.Fatal("restart recovered no mailbox")
	}
	if msgs := s.take(mb, 64, MaxTakeWait); len(msgs) != 64 {
		t.Fatalf("take after restart = %d messages, want 64", len(msgs))
	}
	if p := clk.Pending(); p != 0 {
		t.Fatalf("a take over a parked backlog armed %d timers", p)
	}
	if got := len(st.PendingFor(msgDest(mb.ID), 0)); got != n-64 {
		t.Fatalf("store holds %d records after the take, want %d", got, n-64)
	}
}

// BenchmarkMailboxTakeWake measures deposit-to-take-return latency on
// the wall clock: a take is held on the empty box, one message is
// parked, and wake-ns/op runs from the park until the take has returned
// with it, leaving out the time the taker needs to wait again.
func BenchmarkMailboxTakeWake(b *testing.B) {
	s := New(Config{Clock: clock.Wall, BaseURL: "http://po:9200"})
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	defer s.Stop()
	mb := addBox(s, "bench")
	payload := parkedEnvelope(776)
	taken := make(chan time.Time)
	go func() {
		for {
			msgs := s.take(mb, 16, MaxTakeWait)
			if len(msgs) == 0 {
				close(taken)
				return
			}
			taken <- time.Now()
		}
	}()
	var wake time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		awaitWaiting(mb)
		t0 := time.Now()
		s.storeMessage(mb, payload)
		wake += (<-taken).Sub(t0)
	}
	b.StopTimer()
	b.ReportMetric(float64(wake.Nanoseconds())/float64(b.N), "wake-ns/op")
	s.destroy(mb)
	<-taken
}
