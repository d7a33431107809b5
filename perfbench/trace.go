package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpx"
)

// The tracer times the stack from outside, at its public seams: net.Conn
// wrappers on the dispatcher's listeners and dialer, on the backends, the
// mailbox and the benchmark's own clients, and httpx.Handler wrappers on
// the backends, the mailbox and the reply endpoints. Wire events are tied
// to exchanges by the run's MessageID marker in request bytes; responses
// are tied to requests by connection order. Everything is kept in memory
// and analysed after the run.

// role names one seam.
type role uint8

const (
	roleClient  role = iota // the benchmark's own peer connections
	roleDispIn              // connections accepted by the dispatcher
	roleDispOut             // connections the dispatcher dials
	roleBackIn              // connections accepted by a backend
	roleBackOut             // connections a backend dials (reply leg)
	roleMboxIn              // connections accepted by the mailbox service
	roleReplyIn             // connections accepted by a reply endpoint
	roleHandler             // handler spans (kind says which)
	roleBench               // the generator: send start and completion
	numRoles
)

// dir says what an event saw: a request, the response matched to it by
// connection order, or the marker inside a response (mailbox takes).
type dir uint8

const (
	dirReq dir = iota
	dirResp
	dirRespMark
	dirSpanStart
	dirSpanEnd
)

// event is one timestamped observation of one exchange.
type event struct {
	op  opKey
	at  int64 // ns since the tracer's origin
	r   role
	d   dir
	tag uint8 // handler kind for spans
}

// Handler span kinds.
const (
	spanBackend uint8 = iota
	spanDeposit       // mailbox: deposits carry a marker, takes do not
	spanReply
)

// ioStats counts the traffic through one role's connections while
// tracing is on; requestsAll and dials count for the whole run, since
// dials are rare.
type ioStats struct {
	reads, writes         atomic.Int64
	readBytes, wroteBytes atomic.Int64
	writeNs               atomic.Int64
	requests              atomic.Int64 // "POST /" request heads seen
	requestsAll, dials    atomic.Int64
}

// traceEvery keeps the events of one exchange in traceEvery, bounding the
// tracer's memory and cost; every exchange is still scanned, so
// connection order stays intact.
const traceEvery = 2

type tracer struct {
	ids    ids
	origin time.Time
	on     atomic.Bool // events and spans are recorded only while on

	mu     sync.Mutex
	events []event
	takeNs []int64 // take handler spans (no exchange marker)

	io [numRoles]ioStats
}

func newTracer(g ids, origin time.Time) *tracer {
	return &tracer{ids: g, origin: origin}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) record(op opKey, at int64, r role, d dir, tag uint8) {
	if !t.on.Load() || op.seq()%traceEvery != 0 {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, event{op: op, at: at, r: r, d: d, tag: tag})
	t.mu.Unlock()
}

var (
	postHead   = []byte("POST /")
	statusHead = []byte("HTTP/1.1 ")
)

// legReply tags an event of the reply leg: the marker sat in a
// RelatesTo header rather than a MessageID.
const legReply uint8 = 1

// findMarker returns the first exchange key in b, if any, and which leg
// the message belongs to.
func (t *tracer) findMarker(b []byte) (opKey, uint8, bool) {
	m := t.ids.marker
	i := bytes.Index(b, m)
	if i < 0 || i+len(m)+t.ids.tail > len(b) {
		return 0, 0, false
	}
	leg := uint8(0)
	if j := bytes.LastIndexByte(b[:i], '<'); j >= 0 && bytes.Contains(b[j:i], []byte("RelatesTo")) {
		leg = legReply
	}
	k, ok := t.ids.parse(b[i : i+len(m)+t.ids.tail])
	return k, leg, ok
}

// forMarkers calls f for every exchange key in b.
func (t *tracer) forMarkers(b []byte, f func(opKey)) {
	m := t.ids.marker
	for {
		i := bytes.Index(b, m)
		if i < 0 || i+len(m)+t.ids.tail > len(b) {
			return
		}
		if k, ok := t.ids.parse(b[i : i+len(m)+t.ids.tail]); ok {
			f(k)
		}
		b = b[i+len(m):]
	}
}

// noOp stands for a request that carries no exchange marker (mailbox
// takes, set-up calls); it keeps connection order without an event.
const noOp opKey = 1<<64 - 1

// tconn wraps one connection of a role. Requests travel on Read for
// server-side connections and on Write for client-side ones; each
// request head pushes its exchange (or noOp) on a FIFO that response
// status lines pop, which is how responses without a marker — a 202, a
// relayed RPC response — are tied to their exchange.
type tconn struct {
	net.Conn
	t      *tracer
	r      role
	server bool

	mu   sync.Mutex
	fifo []fifoEntry
}

type fifoEntry struct {
	op  opKey
	leg uint8
}

func (c *tconn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		if c.t.on.Load() {
			st := &c.t.io[c.r]
			st.reads.Add(1)
			st.readBytes.Add(int64(n))
		}
		c.observe(b[:n], c.server)
	}
	return n, err
}

func (c *tconn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(b)
	if c.t.on.Load() {
		st := &c.t.io[c.r]
		st.writes.Add(1)
		st.wroteBytes.Add(int64(n))
		st.writeNs.Add(int64(time.Since(start)))
	}
	if n > 0 {
		c.observe(b[:n], !c.server)
	}
	return n, err
}

// observe scans one chunk. isReq says whether requests travel in this
// direction on this connection.
func (c *tconn) observe(b []byte, isReq bool) {
	t := c.t
	at := t.now()
	if isReq {
		n := 0
		for rest := b; ; n++ {
			i := bytes.Index(rest, postHead)
			if i < 0 {
				break
			}
			seg := rest[i+len(postHead):]
			if j := bytes.Index(seg, postHead); j >= 0 {
				seg = seg[:j]
			}
			op, leg, ok := t.findMarker(seg)
			if !ok {
				op = noOp
			} else {
				t.record(op, at, c.r, dirReq, leg)
			}
			c.mu.Lock()
			c.fifo = append(c.fifo, fifoEntry{op, leg})
			c.mu.Unlock()
			rest = rest[i+len(postHead):]
		}
		t.io[c.r].requestsAll.Add(int64(n))
		if t.on.Load() {
			t.io[c.r].requests.Add(int64(n))
		}
		return
	}
	n := bytes.Count(b, statusHead)
	for ; n > 0; n-- {
		c.mu.Lock()
		e := fifoEntry{op: noOp}
		if len(c.fifo) > 0 {
			e = c.fifo[0]
			c.fifo = c.fifo[1:]
		}
		c.mu.Unlock()
		if e.op != noOp {
			t.record(e.op, at, c.r, dirResp, e.leg)
		}
	}
	if c.r == roleMboxIn || c.r == roleClient {
		t.forMarkers(b, func(op opKey) { t.record(op, at, c.r, dirRespMark, 0) })
	}
}

// tlistener wraps accepted connections of a role.
type tlistener struct {
	net.Listener
	t *tracer
	r role
}

func (l *tlistener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tconn{Conn: c, t: l.t, r: l.r, server: true}, nil
}

// tdialer wraps dialed connections of a role.
type tdialer struct {
	d httpx.Dialer
	t *tracer
	r role
}

func (d *tdialer) DialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := d.d.DialTimeout(addr, timeout)
	if err != nil {
		return nil, err
	}
	d.t.io[d.r].dials.Add(1)
	return &tconn{Conn: c, t: d.t, r: d.r}, nil
}

// thandler times a handler's Serve. Exchanges are identified by the
// marker in the request body; takes carry none and are kept as plain
// durations.
type thandler struct {
	h    httpx.Handler
	t    *tracer
	kind uint8
}

func (h *thandler) Serve(ex *httpx.Exchange) {
	t := h.t
	if !t.on.Load() {
		h.h.Serve(ex)
		return
	}
	op, _, ok := t.findMarker(ex.Req.Body)
	start := t.now()
	h.h.Serve(ex)
	end := t.now()
	if !ok {
		if h.kind == spanDeposit {
			t.mu.Lock()
			t.takeNs = append(t.takeNs, end-start)
			t.mu.Unlock()
		}
		return
	}
	t.record(op, start, roleHandler, dirSpanStart, h.kind)
	t.record(op, end, roleHandler, dirSpanEnd, h.kind)
}

var (
	roleNames = [numRoles]string{"client", "disp.in", "disp.out", "backend.in", "backend.out", "mbox.in", "reply.in", "handler", "bench"}
	dirNames  = []string{"req", "resp", "resp-marker", "span-start", "span-end"}
)

// writeEvents writes the recorded events, one per line, sorted by time:
// time (ns since the run began), sender, sequence number, seam,
// direction and leg (or handler kind).
func (t *tracer) writeEvents(path string) error {
	t.mu.Lock()
	evs := append([]event(nil), t.events...)
	t.mu.Unlock()
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "at_ns\tsender\tseq\tseam\tdir\tleg")
	for _, e := range evs {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\n", e.at, e.op.sender(), e.op.seq(), roleNames[e.r], dirNames[e.d], e.tag)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
