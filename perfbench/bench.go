package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/httpx"
	"repro/internal/wsa"
)

// runConfig is one benchmark run.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration // measured interval
	trace    bool
	setups   int           // stack constructions; setup_s is their median
	warmup   time.Duration // load before measuring (caches, pools, conns)
	drain    time.Duration // bound on waiting for outstanding replies
	dir      string        // working files (the mailbox store)

	// Parked mailbox backlog of the durable workload.
	backlogBoxes, backlogMsgs, backlogSize int

	traceOut string // where a traced run writes its events ("" skips)

	fault *fault // self-test only
	// atEnd, when set, inspects the stack after the drain, before
	// teardown (self-test only).
	atEnd func(*stack)
}

// workload drives one traffic mix against a deployed stack.
type workload interface {
	// stackConfig says what to deploy.
	stackConfig(b *bench) *stackConfig
	// prepare runs once, before any set-up (the durable backlog).
	prepare(b *bench) error
	// peers builds the peer side on b.st: clients and reply endpoints.
	peers(b *bench) error
	// first performs one verified exchange through the fresh stack.
	first(b *bench) error
	// start launches the generators; they return once b.stop closes.
	start(b *bench, senders *sync.WaitGroup)
	// collectorsDone ends anything that outlives the senders (pollers).
	collectorsDone()
}

// bench is the state of one run.
type bench struct {
	cfg    runConfig
	ids    ids
	origin time.Time
	tr     *tracer
	wl     workload

	st      *stack
	ledgers []*ledger // one per sender, fresh per set-up
	setupL  *ledger   // the set-up exchange's ledger
	closers []func()  // peer-side teardown, run in reverse
	logs    []*sampleLog
	stop    chan struct{}

	// Client-side per-layer timings, recorded while tracing.
	cmu       sync.Mutex
	sendNs    []int64
	takeNs    []int64
	takes     atomic.Int64
	emptyTake atomic.Int64
	taken     atomic.Int64
	captured  [][]byte // envelopes replayed through skim/splice/parse
}

func (b *bench) now() int64 { return int64(time.Since(b.origin)) }

func (b *bench) tracing() bool { return b.tr != nil && b.tr.on.Load() }

// mark records a generator-side event of an exchange.
func (b *bench) mark(k opKey, d dir) {
	if b.tr != nil {
		b.tr.record(k, b.now(), roleBench, d, 0)
	}
}

// timedSend records a send-call duration for client.send_us.
func (b *bench) timedSend(ns int64) {
	if b.tracing() {
		b.cmu.Lock()
		b.sendNs = append(b.sendNs, ns)
		b.cmu.Unlock()
	}
}

// capture keeps a sample of sent envelopes for the replay seams.
func (b *bench) capture(seq int, raw []byte) {
	if b.tracing() && seq%64 == 0 {
		b.cmu.Lock()
		if len(b.captured) < 256 {
			b.captured = append(b.captured, append([]byte(nil), raw...))
		}
		b.cmu.Unlock()
	}
}

// client returns a peer-side HTTP client with one keep-alive connection,
// closed at teardown.
func (b *bench) client() *httpx.Client {
	var d httpx.Dialer = httpx.NetDialer{}
	if b.tr != nil {
		d = &tdialer{d: d, t: b.tr, r: roleClient}
	}
	c := httpx.NewClient(d, httpx.ClientConfig{Clock: clock.Wall, MaxIdlePerHost: 1})
	b.closers = append(b.closers, c.Close)
	return c
}

// serveEndpoint serves h on a fresh loopback port and returns its base
// URL; the server closes at teardown.
func (b *bench) serveEndpoint(h httpx.Handler) (string, error) {
	ln, port, err := loopback(0)
	if err != nil {
		return "", err
	}
	if b.tr != nil {
		ln = &tlistener{Listener: ln, t: b.tr, r: roleReplyIn}
		h = &thandler{h: h, t: b.tr, kind: spanReply}
	}
	srv := httpx.NewServer(h, httpx.ServerConfig{Clock: clock.Wall})
	srv.Start(ln)
	b.closers = append(b.closers, func() { srv.Close() })
	return fmt.Sprintf("http://127.0.0.1:%d", port), nil
}

// traceBytes is the heap the tracer's records occupy.
func (b *bench) traceBytes() int {
	n := cap(b.tr.events)*int(unsafe.Sizeof(event{})) +
		8*(cap(b.tr.takeNs)+cap(b.sendNs)+cap(b.takeNs)) +
		cap(b.captured)*int(unsafe.Sizeof([]byte(nil)))
	for _, c := range b.captured {
		n += cap(c)
	}
	return n
}

// newLedger returns a sender's ledger with room for every completion the
// run can produce; window 0 makes the one-exchange set-up ledger.
func (b *bench) newLedger(window int) (*ledger, error) {
	n := 16
	if window > 0 {
		// Far above any rate this stack reaches on one sender.
		n = 100000 * (int(b.cfg.seconds/time.Second) + int(b.cfg.warmup/time.Second) + 2)
	}
	sl, err := newSampleLog(n)
	if err != nil {
		return nil, err
	}
	b.logs = append(b.logs, sl)
	return newLedger(max(window, 1), sl), nil
}

// newLedgers gives each of n senders a fresh ledger with the given
// window, and the set-up exchange its own.
func (b *bench) newLedgers(n, window int) error {
	b.ledgers = nil
	for i := 0; i < n; i++ {
		l, err := b.newLedger(window)
		if err != nil {
			return err
		}
		b.ledgers = append(b.ledgers, l)
	}
	var err error
	b.setupL, err = b.newLedger(0)
	return err
}

func (b *bench) teardown() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]()
	}
	b.closers = nil
	if b.st != nil {
		b.st.stop()
		b.st = nil
	}
	for _, sl := range b.logs {
		sl.free()
	}
	b.logs = nil
}

// awaitSetup waits for the set-up ledger's one exchange to verify.
func (b *bench) awaitSetup(timeout time.Duration) error {
	end := time.Now().Add(timeout)
	for time.Now().Before(end) {
		t := tallyOf([]*ledger{b.setupL})
		switch {
		case t.verified == 1:
			return nil
		case t.failed() > t.missing:
			return fmt.Errorf("set-up exchange failed: %+v", t)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return errors.New("set-up exchange timed out")
}

// setupTimes holds the per-set-up timings of the run.
type setupTimes struct {
	total, storeOpen, mboxStart []float64 // seconds
	recovered                   int64
}

// setUp builds the stack cfg.setups times, each up to its first
// verified exchange, and leaves the last one running.
func (b *bench) setUp() (setupTimes, error) {
	var ts setupTimes
	for i := 0; i < b.cfg.setups; i++ {
		// Collect the previous set-up's garbage outside the timed part,
		// so a collection does not land in one set-up by chance.
		runtime.GC()
		start := time.Now()
		st, err := newStack(b.wl.stackConfig(b))
		if err != nil {
			return ts, fmt.Errorf("stack: %w", err)
		}
		b.st = st
		if err := b.wl.peers(b); err != nil {
			b.teardown()
			return ts, fmt.Errorf("peers: %w", err)
		}
		if err := b.wl.first(b); err != nil {
			b.teardown()
			return ts, fmt.Errorf("first exchange: %w", err)
		}
		ts.total = append(ts.total, time.Since(start).Seconds())
		if st.mboxStore != nil {
			ts.storeOpen = append(ts.storeOpen, st.storeOpen.Seconds())
			ts.mboxStart = append(ts.mboxStart, st.mboxStart.Seconds())
			ts.recovered = st.mboxStore.WAL().RecoveredRecords.Value()
		}
		if i < b.cfg.setups-1 {
			b.teardown()
		}
	}
	return ts, nil
}

// headers builds the WS-Addressing headers of one generated message.
func (b *bench) headers(to string, sender, seq int, replyTo string) *wsa.Headers {
	return &wsa.Headers{
		To:        to,
		Action:    "urn:wsd:echo:echo",
		MessageID: b.ids.mint(sender, seq),
		ReplyTo:   &wsa.EPR{Address: replyTo},
	}
}
