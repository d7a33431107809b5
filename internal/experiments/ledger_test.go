package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/msgbox"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/xmlsoap"
)

// bugFront serves a fresh WS-MsgBox on wsd:9200 behind threadPerMessage
// with the given ledger and linger, and returns a client on another host
// plus the delivery path of one mailbox created through the front.
type bugFront struct {
	tb     *testbed
	mbox   *msgbox.Service
	client *httpx.Client
	path   string
}

func newBugFront(t *testing.T, threads *ledger, linger time.Duration) *bugFront {
	t.Helper()
	tb := newTestbed(1, fineCoalesce)
	t.Cleanup(tb.Close)
	wsd := tb.nw.AddHost("wsd", netsim.ProfileLAN())
	cli := tb.nw.AddHost("cli", netsim.ProfileLAN())
	mbox := msgbox.New(msgbox.Config{Clock: tb.clk, BaseURL: "http://wsd:9200"})
	if err := mbox.Start(); err != nil {
		t.Fatal(err)
	}
	tb.onClose(mbox.Stop)
	ln, err := wsd.Listen(9200)
	if err != nil {
		t.Fatal(err)
	}
	srv := httpx.NewServer(threadPerMessage(mbox, threads, tb.clk, linger), httpx.ServerConfig{Clock: tb.clk})
	srv.Start(ln)
	tb.onClose(func() { srv.Close() })
	client := httpx.NewClient(cli, httpx.ClientConfig{Clock: tb.clk, RequestTimeout: 10 * time.Second})
	tb.onClose(client.Close)
	path := strings.TrimPrefix(createMailbox(tb, client), "http://wsd:9200")
	return &bugFront{tb: tb, mbox: mbox, client: client, path: path}
}

// deliver posts one message to the front's mailbox and returns the
// status, failing the test when a 500 is not the OutOfMemoryError fault.
func (f *bugFront) deliver(t *testing.T, i int) int {
	t.Helper()
	raw, _ := soap.New(soap.V11).SetBody(xmlsoap.NewText("urn:x", "stored", fmt.Sprint(i))).Marshal()
	resp, err := f.client.Do("wsd:9200", httpx.NewRequest("POST", f.path, raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Release()
	if resp.Status == httpx.StatusInternalServerError {
		env, _ := soap.Parse(resp.Body)
		if fault, ok := soap.AsFault(env); !ok || !strings.Contains(fault.Reason, "OutOfMemoryError") {
			t.Fatalf("fault = %+v", fault)
		}
	}
	return resp.Status
}

func TestBuggyModeExplodesThreads(t *testing.T) {
	// Budget for only 8 concurrent "threads"; each lingers 10s while the
	// deliveries arrive back-to-back: §4.3.2's OutOfMemoryError.
	threads := newLedger(8)
	f := newBugFront(t, threads, 10*time.Second)
	var oomSeen bool
	for i := 0; i < 20 && !oomSeen; i++ {
		oomSeen = f.deliver(t, i) == httpx.StatusInternalServerError
	}
	if !oomSeen {
		t.Fatal("thread-per-message front never hit OutOfMemoryError")
	}
	if threads.OOMEvents() == 0 {
		t.Fatal("OOM not counted")
	}
	if peak := threads.Peak(); peak != 8 {
		t.Fatalf("peak threads = %d, want ledger capacity 8", peak)
	}
	if got := f.mbox.Stored.Value(); got != 8 {
		t.Fatalf("Stored = %d, want the 8 deliveries that got a thread", got)
	}
}

// TestLedgerCapsWorkers pins the cap exactly: with room for 2 threads,
// the first 2 deliveries are parked and every later one is refused with
// one OOM event each, never reaching the mailbox.
func TestLedgerCapsWorkers(t *testing.T) {
	threads := newLedger(2)
	f := newBugFront(t, threads, 10*time.Second)
	for i := 0; i < 5; i++ {
		want := httpx.StatusAccepted
		if i >= 2 {
			want = httpx.StatusInternalServerError
		}
		if got := f.deliver(t, i); got != want {
			t.Fatalf("delivery %d status = %d, want %d", i, got, want)
		}
	}
	if threads.Peak() != 2 || threads.OOMEvents() != 3 {
		t.Fatalf("Peak=%d OOM=%d, want 2 and 3", threads.Peak(), threads.OOMEvents())
	}
	if got := f.mbox.Stored.Value(); got != 2 {
		t.Fatalf("Stored = %d, want 2", got)
	}
}

// TestThreadPerMessageReleasesAfterLinger checks that a delivery's thread
// goes back to the ledger once its linger has run out on the clock.
func TestThreadPerMessageReleasesAfterLinger(t *testing.T) {
	threads := newLedger(1)
	f := newBugFront(t, threads, time.Second)
	if got := f.deliver(t, 0); got != httpx.StatusAccepted {
		t.Fatalf("first delivery status = %d", got)
	}
	if got := f.deliver(t, 1); got != httpx.StatusInternalServerError {
		t.Fatalf("delivery while the thread lingers = %d, want 500", got)
	}
	f.tb.clk.Sleep(2 * time.Second)
	if got := f.deliver(t, 2); got != httpx.StatusAccepted {
		t.Fatalf("delivery after the linger = %d, want 202", got)
	}
	if got := f.mbox.Stored.Value(); got != 2 {
		t.Fatalf("Stored = %d, want 2", got)
	}
}

// TestThreadPerMessagePassesManagementThrough checks that management
// RPCs (POST /mbox) are not charged a thread: they still work while
// every thread is taken.
func TestThreadPerMessagePassesManagementThrough(t *testing.T) {
	threads := newLedger(1)
	f := newBugFront(t, threads, 10*time.Second)
	if got := f.deliver(t, 0); got != httpx.StatusAccepted {
		t.Fatalf("delivery status = %d", got)
	}
	if addr := createMailbox(f.tb, f.client); addr == "" {
		t.Fatal("create through an exhausted front returned no address")
	}
	if threads.Peak() != 1 || threads.OOMEvents() != 0 {
		t.Fatalf("Peak=%d OOM=%d after a management RPC, want 1 and 0", threads.Peak(), threads.OOMEvents())
	}
}

func TestLedgerAccounting(t *testing.T) {
	l := newLedger(10)
	for i := 0; i < 10; i++ {
		if err := l.SpawnThread(); err != nil {
			t.Fatalf("spawn %d: %v", i, err)
		}
	}
	if err := l.SpawnThread(); !errors.Is(err, errOutOfMemory) {
		t.Fatalf("11th spawn = %v, want errOutOfMemory", err)
	}
	if l.Peak() != 10 || l.OOMEvents() != 1 {
		t.Fatalf("Peak=%d OOM=%d", l.Peak(), l.OOMEvents())
	}
	l.ReleaseThread()
	if err := l.SpawnThread(); err != nil {
		t.Fatalf("spawn after release: %v", err)
	}
	if l.Peak() != 10 {
		t.Fatalf("Peak = %d after release/respawn, want 10", l.Peak())
	}
}

func TestLedgerReleaseUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ReleaseThread underflow did not panic")
		}
	}()
	newLedger(1).ReleaseThread()
}
