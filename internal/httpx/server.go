package httpx

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/stats"
	"repro/internal/xmlsoap"
)

// Handler processes one exchange: it reads the parsed request from
// ex.Req and answers through the exchange's reply API (ex.Reply,
// ex.ReplyBuffer, ex.ReplyBytes); an exchange left unanswered produces
// 500.
//
// Ownership: ex.Req's head fields and Body live in a pooled buffer the
// connection releases after the reply has been written, so the body —
// and any parsed tree aliasing it (soap.Parse) — is valid until Serve
// returns and while the reply is encoded (a reply may echo the request
// body). A handler that needs the data past that point must either copy
// out what survives (Element.Detach, Envelope.Detach, strings.Clone) or
// assume the release duty with ex.TakeBody. The Exchange and its Request
// struct are connection-owned and reused for the next request; never
// retain them. See the Exchange doc and the buffer-lifecycle diagram on
// Request.
type Handler interface {
	Serve(ex *Exchange)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ex *Exchange)

// Serve implements Handler.
func (f HandlerFunc) Serve(ex *Exchange) { f(ex) }

// ServerConfig tunes a Server.
type ServerConfig struct {
	// Clock drives deadlines; defaults to the wall clock.
	Clock clock.Clock
	// IdleTimeout closes keep-alive connections with no next request.
	// 0 means DefaultIdleTimeout.
	IdleTimeout time.Duration
	// MaxHandlers caps concurrently running handlers; 0 = unlimited
	// (goroutine per connection, like XSUL's thread-per-connection).
	MaxHandlers int
}

// DefaultIdleTimeout matches a conservative 2004 servlet-container
// keep-alive timeout.
const DefaultIdleTimeout = 30 * time.Second

// Server accepts connections from a net.Listener and serves HTTP/1.1 with
// keep-alive. One goroutine per connection.
type Server struct {
	handler Handler
	cfg     ServerConfig

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	handlers chan struct{} // semaphore when MaxHandlers > 0

	// Requests counts requests fully parsed; Errors counts failed
	// reads/writes (client gave up, malformed, timeout).
	Requests stats.Counter
	Errors   stats.Counter
	// ActiveConns tracks open connections (peak gives "concurrent
	// connections survived", used in scalability reports).
	ActiveConns stats.Gauge
}

// NewServer builds a server around handler.
func NewServer(handler Handler, cfg ServerConfig) *Server {
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	s := &Server{handler: handler, cfg: cfg, conns: make(map[net.Conn]struct{})}
	if cfg.MaxHandlers > 0 {
		s.handlers = make(chan struct{}, cfg.MaxHandlers)
	}
	return s
}

// Serve accepts connections until the listener fails or Close is called.
// It always returns a non-nil error; after Close it returns ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.track(conn, true)
		go s.serveConn(conn)
	}
}

// Start runs Serve on its own goroutine and returns immediately.
func (s *Server) Start(ln net.Listener) {
	go func() { _ = s.Serve(ln) }()
}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("httpx: server closed")

// Close stops accepting and closes all open connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return nil
}

func (s *Server) track(c net.Conn, add bool) {
	s.mu.Lock()
	if add {
		s.conns[c] = struct{}{}
		s.ActiveConns.Add(1)
	} else {
		delete(s.conns, c)
		s.ActiveConns.Add(-1)
	}
	s.mu.Unlock()
}

// serveConn drives one connection. It owns exactly one Exchange — one
// reusable Request struct, reply header set, and hijack channel — for
// the connection's whole life, so a keep-alive connection serves every
// request with zero per-request message-struct allocations: the request
// lands in a pooled buffer via ReadRequestInto, the handler replies on
// the exchange, and replies leave in batched writes.
//
// Replies to pipelined requests coalesce: each reply is appended to a
// connection-scoped write buffer, which is flushed — one Write for K
// replies — only when the client's buffered input drains (the fasthttp
// heuristic: a pipelining client does not block on response i before
// sending request i+1), when the accumulated batch exceeds
// coalesceLimit, or when the connection is about to close. A
// one-request-at-a-time client sees exactly the old behavior, its reply
// flushed before the next blocking read.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	defer s.track(conn, false)
	clk := s.cfg.Clock
	br := bufio.NewReader(conn)
	ex := &Exchange{srv: s, conn: conn, remoteAddr: conn.RemoteAddr().String()}
	wbuf := xmlsoap.GetBuffer() // pending batched replies
	defer xmlsoap.PutBuffer(wbuf)
	flush := func() error {
		if len(wbuf.B) == 0 {
			return nil
		}
		_, err := conn.Write(wbuf.B)
		wbuf.B = wbuf.B[:0]
		return err
	}
	var armed time.Time // currently armed read deadline
	for {
		// Idle deadline for the next request. It is pure idle hygiene,
		// so it is re-armed lazily — only once the armed one has less
		// than half the window left — and a busy keep-alive connection
		// pays one deadline update per half-window instead of one per
		// request (a real socket turns each into a syscall; net.Pipe
		// into a timer allocation). The effective idle timeout is then
		// between half of IdleTimeout and all of it, which only ever
		// closes an idle connection earlier, never later; clients
		// redial transparently.
		if now := clk.Now(); armed.Sub(now) < s.cfg.IdleTimeout/2 {
			armed = now.Add(s.cfg.IdleTimeout)
			conn.SetReadDeadline(armed)
		}

		if err := ReadRequestInto(br, &ex.Req); err != nil {
			if err != io.EOF {
				s.Errors.Inc()
			}
			// Replies batched behind a partial pipelined request still
			// belong to the client; push them out best-effort.
			flush()
			return
		}
		s.Requests.Inc()
		ex.Req.RemoteAddr = ex.remoteAddr

		// Snapshot the request's keep-alive verdict before the handler
		// runs: ex.Req.Proto and its headers alias the pooled head
		// buffer, and a handler that takes the body (TakeBody moves head
		// and body together) may release it from another goroutine as
		// soon as it is done — echoservice.Async's reply leg can finish
		// before the reply is written.
		reqClose := wantsClose(ex.Req.Proto, &ex.Req.Header)

		ex.resetReply()
		panicked := s.dispatch(ex)
		if ex.hijacked {
			if panicked {
				// The handler died between Hijack and handing the
				// exchange off; nobody will Finish it. The connection
				// is unrecoverable — release the request, push out any
				// batched replies, and bail.
				if s.handlers != nil {
					<-s.handlers
				}
				ex.Req.Release()
				flush()
				return
			}
			// The reply arrives from another goroutine; Finish's channel
			// send orders its writes to the exchange before ours.
			<-ex.done
		}
		if s.handlers != nil {
			// The MaxHandlers slot covers hijacked work too: the handler
			// is done only once the exchange is finished.
			<-s.handlers
		}

		// The reply is appended to the connection's write buffer (the
		// body is copied, so it may safely echo the request), then the
		// release sequence runs: reply buffer, Defer hooks (relayed-body
		// duties), then the request buffer. A handler that took the body
		// emptied the request's duty, making its release a no-op. An
		// oversized body is not copied; it is written through before its
		// backing buffers can be released.
		var bigBody []byte
		wbuf.B, bigBody = ex.appendReply(wbuf.B)
		if bigBody != nil {
			err := flush()
			if err == nil {
				_, err = conn.Write(bigBody)
			}
			connClose := ex.finishRelease()
			if err != nil {
				s.Errors.Inc()
				return
			}
			if reqClose || connClose {
				return
			}
			continue
		}
		connClose := ex.finishRelease() || reqClose

		// Flush when the client has no more pipelined input buffered
		// (it is now waiting on us), when the batch has grown past the
		// coalesce window, or when this connection is done.
		if connClose || br.Buffered() == 0 || len(wbuf.B) > coalesceLimit {
			if err := flush(); err != nil {
				s.Errors.Inc()
				return
			}
		}
		if connClose {
			return
		}
	}
}

// dispatch runs the handler, converting a panic into a 500 (unless the
// exchange was hijacked, which serveConn treats as fatal for the
// connection). It acquires the MaxHandlers slot; serveConn releases it
// after any hijacked work completes.
func (s *Server) dispatch(ex *Exchange) (panicked bool) {
	if s.handlers != nil {
		s.handlers <- struct{}{}
	}
	defer func() {
		if r := recover(); r != nil {
			s.Errors.Inc()
			panicked = true
		}
	}()
	s.handler.Serve(ex)
	return false
}
