package httpx

import (
	"net"

	"repro/internal/xmlsoap"
)

// Exchange is one request/response cycle on a server connection, and the
// unit the Handler interface works in. The serving connection owns
// exactly one Exchange for its whole life: the embedded Request struct,
// the reply header set, and the hijack machinery are all reused across
// every request a keep-alive connection carries, so steady-state traffic
// performs zero per-request message-struct allocations — the paper's
// long-lived dispatcher conversations are many exchanges on few
// connections, which is why the connection (not the message) is the unit
// this API hands out.
//
// # Ownership
//
// Req's head fields and Body live in a pooled buffer owned by the
// connection; they are valid until the handler's reply has been written
// (Serve return for inline handlers, Finish for hijacked ones), exactly
// as under the package's pooled-buffer rules. A handler that needs them
// longer must detach what survives (Element.Detach, Header.Detach,
// strings.Clone) or take the buffer with TakeBody. The Exchange itself — including the
// Request struct — is reused for the connection's next request the
// moment the reply is on the wire: nothing may retain *Exchange, &ex.Req
// or &ex.Req.Header past that point. Async takers keep the parsed data
// (which aliases the buffer they now own), never the structs.
//
// # Replying
//
// Exactly one of the reply calls answers the exchange:
//
//   - Reply(status, render) renders the body into a pooled buffer the
//     connection releases after the write;
//   - ReplyBuffer(status, buf) takes ownership of an already-rendered
//     pooled buffer (the anonymous-reply hand-back shape);
//   - ReplyBytes(status, body) sends bytes that stay valid until the
//     reply is written: static slices, detached copies, or views of
//     Req.Body (a response may echo the request it answers).
//
// Header() carries the reply's headers; Defer registers a hook run after
// the reply bytes are out (a relay moves a taken body's release duty
// through it). A handler that returns without replying produces 500.
// Head and body leave in one batched Write.
type Exchange struct {
	// Req is the parsed request view. Its fields alias the connection's
	// pooled buffer; see the ownership rules above.
	Req Request

	srv        *Server
	conn       net.Conn
	remoteAddr string

	// done carries Finish's completion signal for hijacked exchanges.
	// Allocated on the first Hijack of the connection, reused after.
	done chan struct{}

	// Reply state, reset per request.
	status   int
	header   Header
	body     []byte
	buf      *xmlsoap.Buffer // owns the rendered reply body, when pooled
	after    func()          // Defer hook, run once after the reply is written
	replied  bool
	hijacked bool
}

// Header returns the reply's header set. Values the handler stores must
// stay valid until the reply is written — constants always are; strings
// aliasing a taken buffer are when the buffer's release rides Defer.
func (ex *Exchange) Header() *Header { return &ex.header }

// Reply answers the exchange with a body produced by an append-style
// render into a pooled buffer; the connection releases the buffer after
// the reply is written. On render error the buffer is released
// immediately, the exchange stays unanswered (the handler may still send
// a fault), and the error is returned.
func (ex *Exchange) Reply(status int, render func(dst []byte) ([]byte, error)) error {
	ex.checkUnreplied()
	buf := xmlsoap.GetBuffer()
	b, err := render(buf.B)
	if err != nil {
		xmlsoap.PutBuffer(buf)
		return err
	}
	buf.B = b
	ex.buf = buf
	ex.setReply(status, b)
	return nil
}

// ReplyBuffer answers the exchange with an already-rendered pooled
// buffer, taking ownership: the connection releases it after the write.
// The MSG-Dispatcher's anonymous-reply hand-back moves a reply rendered
// on another goroutine into the waiting connection this way.
func (ex *Exchange) ReplyBuffer(status int, buf *xmlsoap.Buffer) {
	ex.checkUnreplied()
	ex.buf = buf
	ex.setReply(status, buf.B)
}

// ReplyBytes answers the exchange with body bytes that remain valid
// until the reply is written: static data (fault envelopes), detached
// copies, or slices of Req.Body.
func (ex *Exchange) ReplyBytes(status int, body []byte) {
	ex.checkUnreplied()
	ex.setReply(status, body)
}

func (ex *Exchange) setReply(status int, body []byte) {
	ex.status = status
	ex.body = body
	ex.replied = true
}

func (ex *Exchange) checkUnreplied() {
	if ex.replied {
		panic("httpx: exchange already replied")
	}
}

// Replied reports whether a reply has been recorded.
func (ex *Exchange) Replied() bool { return ex.replied }

// Defer registers f to run exactly once after the reply has been
// written (or the connection failed trying). A proxy that relays a
// client response's pooled body as this reply parks the body's release
// duty here, so the bytes — and any header values copied across — stay
// alive for the write. Multiple hooks compose.
func (ex *Exchange) Defer(f func()) {
	if prev := ex.after; prev != nil {
		ex.after = func() { prev(); f() }
		return
	}
	ex.after = f
}

// TakeBody transfers ownership of the request's pooled buffer (head and
// body together) to the caller, exactly as Request.TakeBody: the
// returned function must be called once after the last use of Req.Body,
// the head fields, or anything aliasing them. The canonical taker is an
// async handler whose work outlives the exchange (echoservice.Async's
// reply leg). The Request struct itself is still reused — takers keep
// the parsed data, not &ex.Req.
func (ex *Exchange) TakeBody() func() { return ex.Req.TakeBody() }

// Hijack detaches the reply from Serve's return: the connection will not
// write anything — and will not read the next request — until Finish is
// called, from any goroutine. Between Serve returning and Finish, the
// hijacker owns the Exchange exclusively (reply calls included); after
// Finish it must not touch it. The MSG-Dispatcher hands its exchanges to
// the CxThread pool this way, which is what removed the per-request
// verdict-channel round trip: workers reply on the exchange directly and
// the connection's one reusable done channel is touched only on this
// hijacked path.
func (ex *Exchange) Hijack() {
	if ex.hijacked {
		panic("httpx: exchange already hijacked")
	}
	ex.hijacked = true
	if ex.done == nil {
		ex.done = make(chan struct{}, 1)
	}
}

// Finish completes a hijacked exchange: the connection wakes, writes the
// recorded reply (500 if none), and moves on to the next request.
func (ex *Exchange) Finish() {
	if !ex.hijacked {
		panic("httpx: Finish on a non-hijacked exchange")
	}
	ex.done <- struct{}{}
}

// RemoteAddr returns the peer address of the underlying connection.
func (ex *Exchange) RemoteAddr() string { return ex.remoteAddr }

// resetReply clears the per-request reply state. The request struct is
// reset by ReadRequestInto.
func (ex *Exchange) resetReply() {
	ex.status = 0
	ex.header.Reset()
	ex.body = nil
	ex.buf = nil
	ex.after = nil
	ex.replied = false
	ex.hijacked = false
}

// appendReply encodes the recorded reply (500 when the handler never
// answered) onto b: status line, headers, and the body when it is small
// enough to coalesce. This is how pipelined replies batch — serveConn
// accumulates consecutive appendReply outputs in one connection-scoped
// buffer and flushes them in a single write once the client's pipelined
// input drains. An oversized body is returned uncopied for the caller to
// write after b, still before the release sequence runs.
func (ex *Exchange) appendReply(b []byte) (out, bigBody []byte) {
	status := ex.status
	if !ex.replied {
		status = StatusInternalServerError
		ex.body = nil
	}
	b = append(b, "HTTP/1.1 "...)
	b = appendStatusLine(b, status)
	b = ex.header.appendWire(b, len(ex.body), "", false)
	if len(ex.body) > coalesceLimit {
		return b, ex.body
	}
	return append(b, ex.body...), nil
}

// finishRelease runs the end-of-exchange release sequence: close
// verdict, reply buffer, Defer hooks, request buffer — in that order
// (header values may alias a relayed buffer whose release rides Defer).
// The reply bytes must already be safely out of the exchange's buffers:
// appendReply copied the body into the write buffer (and an oversized
// body must have been written) before this runs, which is what makes a
// reply that echoes the request body safe to batch.
func (ex *Exchange) finishRelease() (close bool) {
	close = wantsClose("HTTP/1.1", &ex.header)
	if ex.buf != nil {
		xmlsoap.PutBuffer(ex.buf)
		ex.buf = nil
	}
	if f := ex.after; f != nil {
		ex.after = nil
		f()
	}
	ex.Req.Release()
	return close
}

// appendStatusLine appends "<code> <reason>\r\n".
func appendStatusLine(b []byte, status int) []byte {
	b = appendInt(b, status)
	b = append(b, ' ')
	b = append(b, StatusText(status)...)
	return append(b, '\r', '\n')
}

// appendInt appends the decimal form of a non-negative int.
func appendInt(b []byte, n int) []byte {
	if n >= 100 && n < 1000 {
		// Status codes are three digits; skip strconv's machinery.
		return append(b, byte('0'+n/100), byte('0'+n/10%10), byte('0'+n%10))
	}
	var scratch [20]byte
	i := len(scratch)
	if n == 0 {
		return append(b, '0')
	}
	for n > 0 {
		i--
		scratch[i] = byte('0' + n%10)
		n /= 10
	}
	return append(b, scratch[i:]...)
}
