package httpx

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
)

// Dialer opens connections by "host:port" address. netsim.Host implements
// it directly; NetDialer adapts the real network.
type Dialer interface {
	DialTimeout(addr string, timeout time.Duration) (net.Conn, error)
}

// NetDialer is the real-TCP Dialer used by the cmd/ daemons.
type NetDialer struct{}

// DialTimeout implements Dialer over net.DialTimeout.
func (NetDialer) DialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// ClientConfig tunes a Client.
type ClientConfig struct {
	// Clock drives deadlines; defaults to the wall clock.
	Clock clock.Clock
	// DialTimeout bounds connection establishment. 0 means 21s (the
	// classic TCP connect timeout the paper's firewalled sends hit).
	DialTimeout time.Duration
	// RequestTimeout bounds one full request/response exchange. 0
	// means 30s, the HTTP/TCP timeout the paper cites as the limit on
	// RPC interactions.
	RequestTimeout time.Duration
	// MaxIdlePerHost caps pooled keep-alive connections per target.
	// 0 means 4.
	MaxIdlePerHost int
	// IdleConnTTL closes pooled connections that have sat idle longer
	// than this (the server side will have reaped them anyway — its
	// default idle timeout is 30s — so holding them only accumulates
	// dead sockets). 0 means DefaultIdleConnTTL; negative disables
	// expiry.
	IdleConnTTL time.Duration
	// DisableKeepAlive forces one connection per exchange (ablation:
	// the paper argues batching over held connections beats short-lived
	// ones).
	DisableKeepAlive bool
}

// DefaultRequestTimeout is the end-to-end exchange budget; the paper's
// discussion of RPC through intermediaries revolves around responses that
// outlive this kind of limit.
const DefaultRequestTimeout = 30 * time.Second

// DefaultIdleConnTTL is how long an unused pooled connection is kept
// before eviction — comfortably past the server's 30s keep-alive reaper,
// so the TTL only fires on connections that are already dead weight.
const DefaultIdleConnTTL = 90 * time.Second

// Client is a pooling HTTP/1.1 client over an arbitrary Dialer.
//
// # Connection-owned exchanges
//
// Each connection (persistConn) owns one reusable Response struct: every
// response on that connection is read into the same struct, so a
// kept-alive connection performs zero per-exchange message-struct
// allocations. Ownership therefore gates reuse: after Do, the connection
// returns to the idle pool when the caller releases the response
// (resp.Release, or the function TakeBody returned). Until then the
// struct and its pooled buffer are the caller's; after the release
// neither may be touched — the connection's next exchange overwrites the
// struct, and the poolcheck mode poisons the buffer. Skipping a release
// strands the connection (never pooled, closed only by GC finalizers)
// besides forfeiting the buffer.
type Client struct {
	dialer Dialer
	cfg    ClientConfig

	mu     sync.Mutex
	idle   map[string][]*persistConn
	closed bool
}

// persistConn is one client connection and the exchange state it owns:
// the reusable Response struct and the release hook that returns the
// connection to the pool once a Do caller is done with the response.
type persistConn struct {
	c    *Client
	addr string
	conn net.Conn
	br   *bufio.Reader

	// resp is the connection's reusable response. Valid from roundTrip
	// until the caller's release; overwritten by the next exchange.
	resp Response
	// finish is resp's ReleaseBody hook, built once per connection so
	// the steady state allocates no closures.
	finish func()
	// closeAfter records the last exchange's close verdict.
	closeAfter bool
	// idleSince timestamps entry into the idle pool for TTL eviction.
	idleSince time.Time
	// armed is the connection deadline currently set on conn, kept across
	// exchanges so SetDeadline is amortized (see armDeadline).
	armed time.Time
}

// NewClient builds a client using dialer.
func NewClient(dialer Dialer, cfg ClientConfig) *Client {
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 21 * time.Second
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxIdlePerHost == 0 {
		cfg.MaxIdlePerHost = 4
	}
	if cfg.IdleConnTTL == 0 {
		cfg.IdleConnTTL = DefaultIdleConnTTL
	}
	return &Client{dialer: dialer, cfg: cfg, idle: make(map[string][]*persistConn)}
}

// Do sends req to addr ("host:port") and returns the response. Pooled
// connections are reused; a stale pooled connection is retried once on a
// fresh dial. The whole exchange is bounded by RequestTimeout (overridable
// per call with DoTimeout). req is never mutated — callers may reuse one
// Request across any number of Do calls (and reset-and-refill one, as
// the MSG-Dispatcher's delivery loop does).
//
// Ownership: the response — struct and pooled head+body buffer — is
// owned by the underlying connection and lent to the caller until
// resp.Release (or the release function resp.TakeBody returns) runs;
// that same release returns the connection to the idle pool. Release
// exactly once, after the body and anything aliasing it (a soap.Parse
// tree, copied header strings) are done with.
func (c *Client) Do(addr string, req *Request) (*Response, error) {
	return c.DoTimeout(addr, req, c.cfg.RequestTimeout)
}

// DoTimeout is Do with an explicit exchange budget.
func (c *Client) DoTimeout(addr string, req *Request, timeout time.Duration) (*Response, error) {
	deadline := c.cfg.Clock.Now().Add(timeout)

	// First try a pooled connection; it may have been closed by the
	// server's idle timeout, in which case retry on a fresh dial.
	if pc := c.takeIdle(addr); pc != nil {
		resp, err := pc.roundTrip(req, deadline)
		if err == nil {
			return resp, nil
		}
		pc.conn.Close()
	}

	pc, err := c.dial(addr, deadline)
	if err != nil {
		return nil, err
	}
	resp, err := pc.roundTrip(req, deadline)
	if err != nil {
		pc.conn.Close()
		return nil, err
	}
	return resp, nil
}

// dial opens a fresh connection to addr within the exchange deadline.
func (c *Client) dial(addr string, deadline time.Time) (*persistConn, error) {
	dialBudget := c.cfg.DialTimeout
	if remaining := deadline.Sub(c.cfg.Clock.Now()); remaining < dialBudget {
		dialBudget = remaining
	}
	if dialBudget <= 0 {
		return nil, &clientTimeoutError{addr: addr}
	}
	conn, err := c.dialer.DialTimeout(addr, dialBudget)
	if err != nil {
		return nil, fmt.Errorf("httpx: dial %s: %w", addr, err)
	}
	return c.newPersistConn(addr, conn), nil
}

func (c *Client) newPersistConn(addr string, conn net.Conn) *persistConn {
	// The connection — and with it pc.addr, used as the idle-pool key
	// and as the Host header of every request it carries — outlives the
	// exchange that dialed it, whose addr may alias a pooled buffer
	// (SplitURL slices the parsed To header). Detach once per dial.
	pc := &persistConn{c: c, addr: strings.Clone(addr), conn: conn, br: bufio.NewReader(conn)}
	pc.finish = func() {
		if pc.closeAfter {
			pc.conn.Close()
			return
		}
		pc.c.putIdle(pc)
	}
	return pc
}

// armDeadline arms pc's connection deadline, amortizing SetDeadline the
// same way the server's read loop does: the previous arm is kept while it
// is no later than the requested deadline and at least half the requested
// budget remains on it, so a hot keep-alive connection re-arms once per
// ~timeout/2 instead of on every exchange. (On real sockets SetDeadline
// is a timer re-arm; on net.Pipe it allocates a cancel channel and an
// AfterFunc per call — the dominant per-exchange allocation before this.)
// A kept deadline only ever shortens the budget, never extends it, and by
// at most half; the stale-connection retry path absorbs the rare case
// where the shortened budget expires mid-exchange.
func (pc *persistConn) armDeadline(deadline time.Time) {
	now := pc.c.cfg.Clock.Now()
	if a := pc.armed; !a.IsZero() && !a.After(deadline) && a.Sub(now) >= deadline.Sub(now)/2 {
		return
	}
	pc.armed = deadline
	pc.conn.SetDeadline(deadline)
}

// roundTrip performs one request/response on pc: a burst of one that
// lends the response out. The response is read into pc's reusable
// struct, and its release hook returns pc to the pool — the connection
// is out of circulation exactly as long as the caller holds the
// response.
func (pc *persistConn) roundTrip(req *Request, deadline time.Time) (*Response, error) {
	if err := pc.send([]*Request{req}, deadline); err != nil {
		return nil, err
	}
	resp := &pc.resp
	if err := ReadResponseInto(pc.br, resp); err != nil {
		return nil, fmt.Errorf("httpx: read from %s: %w", pc.addr, err)
	}
	// The close verdict is snapshotted now (the caller may release from
	// another goroutine, and the header strings die with the buffer).
	pc.closeAfter = pc.wantsClose(resp)
	resp.ReleaseBody = pc.finish
	return resp, nil
}

// send arms the deadline and writes reqs as one burst. Host and
// Connection are supplied at encode time rather than by cloning the
// header set: nothing is allocated and no request is mutated, so a retry
// re-encodes the identical burst. The deadline is deliberately left
// armed after a keep-alive exchange: clearing it would cost a
// SetDeadline per exchange, and the next exchange re-arms (or keeps) it
// anyway. A deadline that fires while the connection sits idle just
// makes the next reuse look stale, which the fresh-dial retry handles.
func (pc *persistConn) send(reqs []*Request, deadline time.Time) error {
	pc.armDeadline(deadline)
	if err := encodeBatch(pc.conn, reqs, pc.addr, pc.c.cfg.DisableKeepAlive); err != nil {
		return fmt.Errorf("httpx: write to %s: %w", pc.addr, err)
	}
	return nil
}

// wantsClose is the connection's close verdict for resp: the peer asked
// for it, or the client runs without keep-alive.
func (pc *persistConn) wantsClose(resp *Response) bool {
	return pc.c.cfg.DisableKeepAlive || wantsClose(resp.Proto, &resp.Header)
}

// batchTrip performs a pipelined burst on pc: all requests leave in one
// vectored write (encodeBatch), then the responses are read back in
// pipeline order, each handed to handle while it is valid. One deadline
// covers the whole burst — one SetDeadline syscall per batch, not per
// message.
//
// Unlike roundTrip, ownership of each response never leaves the
// connection: handle borrows the reusable Response for the duration of
// the call and batchTrip releases its pooled buffer immediately after,
// before reading the next response into the same struct. A callback that
// needs bytes past its return must detach them.
//
// done reports how many responses were fully processed. A peer that
// closes mid-batch (Connection: close before the last response, or a
// read error) strands the written tail; the caller requeues reqs[done:].
func (pc *persistConn) batchTrip(reqs []*Request, deadline time.Time, handle func(i int, resp *Response)) (done int, err error) {
	if err := pc.send(reqs, deadline); err != nil {
		return 0, err
	}
	resp := &pc.resp
	for i := range reqs {
		if err := ReadResponseInto(pc.br, resp); err != nil {
			return i, fmt.Errorf("httpx: read from %s: %w", pc.addr, err)
		}
		// Snapshot the close verdict before handle: the header strings
		// die with the buffer released below.
		pc.closeAfter = pc.wantsClose(resp)
		handle(i, resp)
		resp.Release()
		if pc.closeAfter && i+1 < len(reqs) {
			return i + 1, fmt.Errorf("httpx: %s closed the connection after %d of %d batched responses", pc.addr, i+1, len(reqs))
		}
	}
	return len(reqs), nil
}

// takeIdle pops the most recently parked connection for addr, evicting
// any that have outlived IdleConnTTL along the way.
func (c *Client) takeIdle(addr string) *persistConn {
	c.mu.Lock()
	expired := c.pruneIdleLocked(addr)
	list := c.idle[addr]
	var pc *persistConn
	if len(list) > 0 {
		pc = list[len(list)-1]
		c.idle[addr] = list[:len(list)-1]
	}
	c.mu.Unlock()
	for _, dead := range expired {
		dead.conn.Close()
	}
	return pc
}

// putIdle parks pc for reuse, unless the pool is closed, full, or pc's
// slot is taken by younger connections; TTL-expired entries are evicted
// first. The pool is keyed on pc.addr, the detached per-connection copy.
func (c *Client) putIdle(pc *persistConn) {
	addr := pc.addr
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	expired := c.pruneIdleLocked(addr)
	drop := c.closed || len(c.idle[addr]) >= c.cfg.MaxIdlePerHost
	if !drop {
		pc.idleSince = now
		c.idle[addr] = append(c.idle[addr], pc)
	}
	c.mu.Unlock()
	for _, dead := range expired {
		dead.conn.Close()
	}
	if drop {
		pc.conn.Close()
	}
}

// pruneIdleLocked removes TTL-expired connections for addr from the pool
// (oldest first — parking is LIFO, so expiry is a prefix) and returns
// them for closing outside the lock. Caller holds c.mu.
func (c *Client) pruneIdleLocked(addr string) []*persistConn {
	ttl := c.cfg.IdleConnTTL
	if ttl < 0 {
		return nil
	}
	list := c.idle[addr]
	cutoff := c.cfg.Clock.Now().Add(-ttl)
	n := 0
	for n < len(list) && list[n].idleSince.Before(cutoff) {
		n++
	}
	if n == 0 {
		return nil
	}
	expired := make([]*persistConn, n)
	copy(expired, list[:n])
	remaining := copy(list, list[n:])
	for i := remaining; i < len(list); i++ {
		list[i] = nil
	}
	c.idle[addr] = list[:remaining]
	return expired
}

// IdleConns reports pooled connections for addr (tests/metrics); expired
// entries are evicted first, so the count reflects usable connections.
func (c *Client) IdleConns(addr string) int {
	c.mu.Lock()
	expired := c.pruneIdleLocked(addr)
	n := len(c.idle[addr])
	c.mu.Unlock()
	for _, dead := range expired {
		dead.conn.Close()
	}
	return n
}

// Close drops all pooled connections. In-flight exchanges are unaffected.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	var all []*persistConn
	for _, list := range c.idle {
		all = append(all, list...)
	}
	c.idle = make(map[string][]*persistConn)
	c.mu.Unlock()
	for _, pc := range all {
		pc.conn.Close()
	}
}

// Stream is a session pinned to one destination: consecutive bursts
// reuse the same connection directly, without re-entering the idle pool
// between them. It is the client-side face of the paper's held delivery
// connections — the MSG-Dispatcher's WsThread opens one Stream per
// destination binding and pipelines every queued message through it.
//
// A Stream sends only bursts (DoBatch); a lone request is a burst of
// one. Bursts are sequential: a DoBatch started while another runs —
// from its callback, say — is refused with ErrStreamBusy. Close returns
// a healthy connection to the shared idle pool so the next binding can
// pick it up.
type Stream struct {
	c    *Client
	addr string

	mu sync.Mutex
	// pc is the pinned connection between bursts; a running burst holds
	// it outside the struct.
	pc     *persistConn
	busy   bool
	closed bool
}

// Stream opens a session to addr. The connection is established lazily —
// adopted from the idle pool when one is parked there, dialed otherwise —
// on the first burst.
func (c *Client) Stream(addr string) *Stream {
	return &Stream{c: c, addr: addr}
}

// errors surfaced by Stream misuse.
var (
	ErrStreamClosed = errors.New("httpx: stream closed")
	ErrStreamBusy   = errors.New("httpx: stream burst already in progress")
)

// DoBatch sends a burst of requests pipelined over the stream's
// connection — one vectored write for the whole batch, one deadline
// re-arm — and reads the responses back in order. For each response,
// handle(i, resp) is called with the connection's reusable Response;
// the response (head fields, Body, anything aliasing them) is valid only
// until the callback returns, after which DoBatch releases it and reads
// the next response into the same struct. The callback must not call
// Release or TakeBody; it detaches what survives.
//
// done reports how many responses were fully processed (handled and
// released), always a prefix of reqs. On a mid-batch failure — write
// error, read error, or a peer that closed before the last response —
// done < len(reqs) and err is non-nil; the caller decides the tail's
// fate (the MSG-Dispatcher requeues it). A stale pinned connection is
// retried once on a fresh dial, but only while done == 0, so no message
// is ever double-processed. Under DisableKeepAlive each request is its
// own burst of one on a fresh connection, and handle still sees batch
// indices.
func (s *Stream) DoBatch(reqs []*Request, timeout time.Duration, handle func(i int, resp *Response)) (done int, err error) {
	if !s.c.cfg.DisableKeepAlive {
		return s.burst(reqs, timeout, handle)
	}
	for i := range reqs {
		n, err := s.burst(reqs[i:i+1], timeout, func(_ int, resp *Response) { handle(i, resp) })
		if err != nil {
			return i + n, err
		}
	}
	return len(reqs), nil
}

// burst runs one pipelined burst on the pinned connection — adopted from
// the idle pool, or dialed, when none is pinned — with the one
// stale-connection retry.
func (s *Stream) burst(reqs []*Request, timeout time.Duration, handle func(i int, resp *Response)) (done int, err error) {
	if len(reqs) == 0 {
		return 0, nil
	}
	deadline := s.c.cfg.Clock.Now().Add(timeout)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrStreamClosed
	}
	if s.busy {
		s.mu.Unlock()
		return 0, ErrStreamBusy
	}
	pc := s.pc
	s.pc, s.busy = nil, true
	s.mu.Unlock()

	if pc == nil {
		pc = s.c.takeIdle(s.addr)
	}
	if pc != nil {
		done, err = pc.batchTrip(reqs, deadline, handle)
		if err == nil || done > 0 {
			s.finished(pc, err)
			return done, err
		}
		// Nothing processed on a reused connection: it likely went stale
		// in the pool. Retry the whole batch once on a fresh dial — no
		// callback has run, so re-encoding re-reads intact request bodies.
		pc.conn.Close()
	}
	if pc, err = s.c.dial(s.addr, deadline); err != nil {
		s.finished(nil, err)
		return 0, err
	}
	done, err = pc.batchTrip(reqs, deadline, handle)
	s.finished(pc, err)
	return done, err
}

// finished ends a burst: a healthy connection is pinned again, or parked
// in the idle pool if the stream closed meanwhile; a failed or closing
// one is disposed of.
func (s *Stream) finished(pc *persistConn, err error) {
	healthy := pc != nil && err == nil && !pc.closeAfter
	s.mu.Lock()
	s.busy = false
	park := s.closed
	if healthy && !park {
		s.pc = pc
	}
	s.mu.Unlock()
	switch {
	case pc == nil:
	case !healthy:
		pc.conn.Close()
	case park:
		s.c.putIdle(pc)
	}
}

// Close ends the session. An idle healthy connection is returned to the
// client's shared pool (the next binding to this destination adopts it
// back); a connection in use by a burst follows the same path when the
// burst ends.
func (s *Stream) Close() {
	s.mu.Lock()
	s.closed = true
	pc := s.pc
	s.pc = nil
	s.mu.Unlock()
	if pc != nil {
		s.c.putIdle(pc)
	}
}

// clientTimeoutError is returned when the exchange budget is exhausted
// before the request could even be sent.
type clientTimeoutError struct{ addr string }

func (e *clientTimeoutError) Error() string   { return "httpx: request to " + e.addr + " timed out" }
func (e *clientTimeoutError) Timeout() bool   { return true }
func (e *clientTimeoutError) Temporary() bool { return true }
