package httpx

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"repro/internal/xmlsoap"
)

// maxHeaderBytes bounds the head section — request/status line, header
// lines, and their CR/LF terminators — to keep a malicious or broken peer
// from ballooning memory.
const maxHeaderBytes = 64 << 10

// maxBodyBytes bounds message bodies. SOAP envelopes in this system are a
// few hundred bytes; 8 MiB leaves generous room for WSDL documents and
// batched mailbox downloads.
const maxBodyBytes = 8 << 20

// Request is an HTTP request with a fully buffered body.
//
// # Buffer lifecycle
//
// Messages on the hot path live in pooled buffers (xmlsoap.GetBuffer
// storage) with single-release ownership at every seam. A message read
// from the wire occupies exactly one pooled buffer holding head and body
// back to back: Method, Path, Proto, Reason, and every Header key and
// value alias the head bytes, and Body aliases the tail. The message
// STRUCTS, in turn, are connection-owned and reused (the server's
// Exchange holds one Request; the client's persistConn holds one
// Response), so one server-side exchange, from bytes on the socket to
// bytes out, moves exactly two pooled buffers and allocates no structs:
//
//	socket ──ReadRequestInto──▶ connection's Request (reused struct)
//	                                 │ buffer: head + body, pooled
//	                                 │ head: Method/Path/Proto/Header alias it
//	                                 │ body: ex.Req.Body, aliased by soap.Parse trees
//	                                 ▼
//	                            Handler.Serve(ex) ──▶ ex.Reply* records the
//	                                 │                 reply (pooled render,
//	                                 │                 adopted buffer, or bytes)
//	                                 ▼
//	socket ◀── one batched write (head+body), then the connection releases:
//	            reply buffer ─▶ back to pool, Defer hooks run
//	            req.Release() ─▶ request head+body buffer back to pool
//
// The connection owns the request buffer: handlers may read Body, the
// head fields, and parse trees aliasing Body freely until Serve returns
// (Finish, for hijacked exchanges), and must either finish with them by
// then, copy out what survives (Element.Detach, Envelope.Detach,
// Header.Detach, strings.Clone), or take over the release duty with
// TakeBody — echoservice.Async's reply goroutine is the canonical taker.
// TakeBody moves the whole buffer, so a taker keeps the head fields'
// backing bytes alive too; conversely, once a handler has taken the body
// the connection no longer trusts the head (it snapshots its keep-alive
// decision before dispatching), and the taker must not touch the reused
// structs — only the parsed data. On the client side the same shape
// applies to responses: Client.Do lends out the connection's Response,
// whose pooled head+body the caller releases via Response.Release (or
// forwards via TakeBody; rpcdisp relays a service response's buffer
// straight into its own reply this way — header values it copies across
// stay alive because the buffer's release moves with them). That release
// is also what returns the client connection to the idle pool, so
// forgetting it strands a connection besides forfeiting the buffer;
// a double release or a use-after-release is a bug the pool's check mode
// (xmlsoap.EnablePoolCheck) turns into a panic.
type Request struct {
	Method string
	// Path is the request-URI as sent on the wire, e.g. "/wsd/echo".
	Path   string
	Proto  string // "HTTP/1.1" unless overridden
	Header Header
	Body   []byte

	// RemoteAddr is filled by the server with the peer address.
	RemoteAddr string

	pooledBody
}

// pooledBody is the shared release-duty mechanism embedded in Request
// and Response, so both sides of an exchange follow one lifecycle
// contract. It can hold a pooled buffer directly (the reader paths,
// allocation-free) and/or an arbitrary release hook (relays and
// takers).
type pooledBody struct {
	// buf is the message's pooled storage: head+body for messages read
	// off the wire. Owned by the message until Release or TakeBody.
	buf *xmlsoap.Buffer
	// ReleaseBody, when non-nil, is an additional release hook run
	// exactly once by the buffer's owner; rpcdisp wires a relayed
	// response's duty through it. Use Release or TakeBody rather than
	// calling the field directly.
	ReleaseBody func()
}

// Release returns the message's pooled buffer (head and body) to the
// pool, if it has one and it was not already released or taken. It is
// idempotent, so owners can call it unconditionally on every exit path.
// Body, the head fields, and anything aliasing them must not be touched
// afterwards.
func (p *pooledBody) Release() {
	if b := p.buf; b != nil {
		p.buf = nil
		xmlsoap.PutBuffer(b)
	}
	if f := p.ReleaseBody; f != nil {
		p.ReleaseBody = nil
		f()
	}
}

// TakeBody transfers ownership of the pooled buffer to the caller: the
// previous owner will no longer release it when the exchange ends, and
// the returned function must be called exactly once after the last use
// of Body, the head fields, or anything aliasing them. For a fully
// GC-owned message it returns a no-op, so takers need no special case.
// A proxy relaying a client response as its own server response moves
// the obligation with it (rpcdisp does exactly this); echoservice.Async's
// reply goroutine is the canonical request-side taker.
func (p *pooledBody) TakeBody() func() {
	b, f := p.buf, p.ReleaseBody
	p.buf, p.ReleaseBody = nil, nil
	switch {
	case b != nil && f != nil:
		return func() { xmlsoap.PutBuffer(b); f() }
	case b != nil:
		return func() { xmlsoap.PutBuffer(b) }
	case f != nil:
		return f
	}
	return func() {}
}

// NewRequest builds a request with sensible defaults for this stack:
// HTTP/1.1, Content-Length set from body.
func NewRequest(method, path string, body []byte) *Request {
	return &Request{Method: method, Path: path, Proto: "HTTP/1.1", Body: body}
}

// Reset clears the request in place for reuse, keeping allocated header
// capacity. The pooled buffer, if still owned, is NOT released — owners
// release before resetting (a reused request whose buffer was taken must
// not double-free it). Connection-scoped reuse (Exchange, the
// MSG-Dispatcher's delivery loop) goes through here so steady-state
// traffic builds no fresh message structs.
func (r *Request) Reset() {
	r.Method, r.Path, r.Proto, r.RemoteAddr = "", "", "", ""
	r.Header.Reset()
	r.Body = nil
	r.buf = nil
	r.ReleaseBody = nil
}

// Response is an HTTP response with a fully buffered body. It follows the
// same buffer lifecycle as Request (see there).
type Response struct {
	Status int
	Reason string
	Proto  string
	Header Header
	Body   []byte

	pooledBody
}

// Reset clears the response in place for reuse (see Request.Reset); the
// client's persistConn reuses one Response per connection through it.
func (r *Response) Reset() {
	r.Status = 0
	r.Reason, r.Proto = "", ""
	r.Header.Reset()
	r.Body = nil
	r.buf = nil
	r.ReleaseBody = nil
}

// errors surfaced by the codec.
var (
	ErrMalformed    = errors.New("httpx: malformed message")
	ErrHeaderTooBig = errors.New("httpx: header section too large")
	ErrBodyTooBig   = errors.New("httpx: body exceeds limit")
)

// coalesceLimit is the largest body that is copied into the head's
// pooled buffer so head and body leave in ONE Write call (one syscall,
// one netsim segment schedule) instead of a head write followed by a
// body write. It sits below maxPooledBuffer so a coalesced SOAP message
// never costs the pool its buffer; bigger bodies (WSDL documents,
// batched mailbox downloads) ride uncopied in a vectored write.
const coalesceLimit = 32 << 10

// appendHead appends the request's wire head — request line, header
// lines, terminating blank line — to b. The body is framed
// (Content-Length) but not appended. hostIfMissing is emitted as the
// Host header when r.Header lacks one, and forceClose overrides
// Connection with "close"; neither mutates r.Header.
func (r *Request) appendHead(b []byte, hostIfMissing string, forceClose bool) []byte {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	b = append(b, r.Method...)
	b = append(b, ' ')
	b = append(b, r.Path...)
	b = append(b, ' ')
	b = append(b, proto...)
	b = append(b, '\r', '\n')
	return r.Header.appendWire(b, len(r.Body), hostIfMissing, forceClose)
}

// encodeBatch is the request encoder: it serializes a burst of requests
// (a lone request is a burst of one) back to back into one shared pooled
// buffer and sends the whole burst in a single write, so a burst of N
// SOAP messages costs one syscall instead of N. Bodies above
// coalesceLimit are not copied: each rides as its own net.Buffers
// element between slices of the shared buffer, and the burst still
// leaves in one WriteTo (writev on real sockets; element-wise writes on
// pipe-like conns). Every request's Body must stay valid until
// encodeBatch returns; ownership is not transferred. hostIfMissing and
// forceClose apply to every request (see appendHead).
func encodeBatch(w io.Writer, reqs []*Request, hostIfMissing string, forceClose bool) error {
	buf := xmlsoap.GetBuffer()
	defer xmlsoap.PutBuffer(buf)
	b := buf.B
	var chain net.Buffers
	start := 0
	for _, r := range reqs {
		b = r.appendHead(b, hostIfMissing, forceClose)
		if n := len(r.Body); n > 0 && n <= coalesceLimit {
			b = append(b, r.Body...)
		} else if n > 0 {
			// Close the shared-buffer segment before the oversized body.
			// Later appends may move b to a fresh array, but the recorded
			// slice keeps referencing the bytes already written, so the
			// chain stays intact.
			chain = append(chain, b[start:len(b):len(b)], r.Body)
			start = len(b)
		}
	}
	buf.B = b
	if len(chain) == 0 {
		_, err := w.Write(b)
		return err
	}
	if start < len(b) {
		chain = append(chain, b[start:])
	}
	return writeChain(w, chain)
}

// writeChain sends a vectored chain. It takes the chain by value:
// calling WriteTo (a pointer method) on encodeBatch's own variable would
// move that variable to the heap, costing every burst an allocation even
// when it builds no chain.
func writeChain(w io.Writer, chain net.Buffers) error {
	_, err := chain.WriteTo(w)
	return err
}

// bstr views b as a string without copying. The result aliases b: it is
// valid exactly as long as the backing buffer and must be detached
// (strings.Clone) to outlive it — the same contract as xmlsoap's span
// strings.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// ReadRequestInto reads one request — head and body — into a
// caller-owned, reusable request struct: req is reset, a fresh pooled
// buffer is drawn for head+body, and on success req owns it per the
// lifecycle contract above (head fields and Body alias it). On error
// nothing is retained. The server's Exchange reads every request on a
// connection through one struct this way, so a keep-alive connection
// performs zero per-request allocations. The previous message must have
// been released (or its body taken) before the struct is reused.
func ReadRequestInto(br *bufio.Reader, req *Request) error {
	req.Reset()
	return readMessage(br, req.parseStartLine, &req.Header, &req.Body, &req.pooledBody)
}

// ReadResponseInto is ReadRequestInto for responses; the client's
// persistConn reads every response on a connection through one struct.
func ReadResponseInto(br *bufio.Reader, resp *Response) error {
	resp.Reset()
	return readMessage(br, resp.parseStartLine, &resp.Header, &resp.Body, &resp.pooledBody)
}

// readMessage is the one head+body reader behind ReadRequestInto and
// ReadResponseInto, which differ only in parseStart. The head is read
// into a fresh pooled buffer and parsed in place (every string aliases
// it), the body is framed into the same buffer right behind it, and on
// success the buffer's ownership moves to p.
func readMessage(br *bufio.Reader, parseStart func(line string) error, h *Header, body *[]byte, p *pooledBody) error {
	buf := xmlsoap.GetBuffer()
	b, n, err := readWire(br, parseStart, h, buf)
	if err != nil {
		xmlsoap.PutBuffer(buf)
		return err
	}
	buf.B = b
	if n > 0 {
		*body = b[len(b)-n:]
	}
	p.buf = buf
	return nil
}

// readWire reads and parses the head into buf, then appends the n body
// bytes behind it and returns the extended slice.
func readWire(br *bufio.Reader, parseStart func(line string) error, h *Header, buf *xmlsoap.Buffer) (b []byte, n int, err error) {
	head, err := readHead(br, buf)
	if err != nil {
		return nil, 0, err
	}
	line, rest := nextLine(head)
	if err := parseStart(line); err != nil {
		return nil, 0, err
	}
	if err := parseHeaderLines(rest, h); err != nil {
		return nil, 0, err
	}
	return readBodyInto(br, h, buf.B)
}

// parseStartLine splits the request line in place; every string it
// produces aliases line.
func (r *Request) parseStartLine(line string) error {
	// Replicate strings.SplitN(line, " ", 3): exactly two single-space
	// cuts, the remainder (which may itself contain spaces) is the
	// protocol version.
	i1 := strings.IndexByte(line, ' ')
	if i1 < 0 {
		return fmt.Errorf("%w: bad request line %q", ErrMalformed, line)
	}
	i2 := strings.IndexByte(line[i1+1:], ' ')
	if i2 < 0 {
		return fmt.Errorf("%w: bad request line %q", ErrMalformed, line)
	}
	proto := line[i1+1+i2+1:]
	if !strings.HasPrefix(proto, "HTTP/") {
		return fmt.Errorf("%w: bad request line %q", ErrMalformed, line)
	}
	r.Method = line[:i1]
	r.Path = line[i1+1 : i1+1+i2]
	r.Proto = proto
	return nil
}

// parseStartLine splits the status line in place.
func (r *Response) parseStartLine(line string) error {
	i1 := strings.IndexByte(line, ' ')
	if i1 < 0 || !strings.HasPrefix(line, "HTTP/") {
		return fmt.Errorf("%w: bad status line %q", ErrMalformed, line)
	}
	statusReason := line[i1+1:]
	statusStr := statusReason
	if i2 := strings.IndexByte(statusReason, ' '); i2 >= 0 {
		statusStr = statusReason[:i2]
		r.Reason = statusReason[i2+1:]
	}
	status, err := strconv.Atoi(statusStr)
	if err != nil {
		return fmt.Errorf("%w: bad status code %q", ErrMalformed, statusStr)
	}
	r.Proto = line[:i1]
	r.Status = status
	return nil
}

// nextLine cuts the first line off head, stripping exactly one "\r\n" (or
// bare "\n") terminator — a value byte that happens to be '\r' is data,
// not framing. readHead guarantees every line in head ends in '\n'.
func nextLine(head []byte) (line string, rest []byte) {
	i := 0
	for i < len(head) && head[i] != '\n' {
		i++
	}
	end := i
	if end > 0 && head[end-1] == '\r' {
		end--
	}
	if i < len(head) {
		i++
	}
	return bstr(head[:end]), head[i:]
}

// parseHeaderLines fills h from the header section (everything after the
// start line, including the terminating blank line). Keys keep their wire
// spelling; keys and values alias the head buffer. Duplicate keys (under
// sameKey) keep the first spelling and the last value, matching the
// frozen map parser's last-write-wins.
func parseHeaderLines(rest []byte, h *Header) error {
	for len(rest) > 0 {
		var line string
		line, rest = nextLine(rest)
		if line == "" {
			return nil
		}
		i := strings.IndexByte(line, ':')
		if i <= 0 {
			return fmt.Errorf("%w: bad header line %q", ErrMalformed, line)
		}
		key := strings.TrimSpace(line[:i])
		if key == "" {
			// A whitespace-only name would round-trip as ": value",
			// which parses as malformed; reject it at the source.
			return fmt.Errorf("%w: bad header line %q", ErrMalformed, line)
		}
		h.Set(key, strings.TrimSpace(line[i+1:]))
	}
	// readHead always ends the head with the blank line, so this is
	// unreachable; keep the loop total regardless.
	return nil
}

// wantsClose reports whether the message's Connection header asks to drop
// the connection after this exchange, honouring HTTP/1.0 defaults. The
// token compare is ASCII-case-insensitive and allocation-free (the old
// path lowercased the value, allocating on every mixed-case Keep-Alive).
func wantsClose(proto string, h *Header) bool {
	c := h.Get("Connection")
	if proto == "HTTP/1.0" {
		return !asciiEqualFold(c, "keep-alive")
	}
	return asciiEqualFold(c, "close")
}

// readHead reads the whole head — start line through the terminating
// blank line, CR/LFs included — into buf and returns the slice holding
// it. It enforces maxHeaderBytes on the raw head size as it accumulates,
// so an unterminated or oversized head fails with ErrHeaderTooBig
// instead of ballooning memory first. Lines may be split across the
// bufio buffer; fragments are copied out immediately, so the reader's
// internal buffer is never aliased.
func readHead(br *bufio.Reader, buf *xmlsoap.Buffer) ([]byte, error) {
	b := buf.B
	lineStart := 0
	for {
		frag, err := br.ReadSlice('\n')
		b = append(b, frag...)
		buf.B = b
		if len(b) > maxHeaderBytes {
			return nil, ErrHeaderTooBig
		}
		if err == bufio.ErrBufferFull {
			continue // current line continues in the next fragment
		}
		if err != nil {
			return nil, err
		}
		// One complete line landed; blank (just the terminator) ends
		// the head unless it is the start line position.
		n := len(b) - lineStart
		if lineStart > 0 && (n == 1 || (n == 2 && b[lineStart] == '\r')) {
			return b, nil
		}
		lineStart = len(b)
	}
}

// readLineAlloc reads one LF-terminated line for the chunked-framing
// paths (chunk-size lines, post-chunk CRLFs, trailers), stripping
// exactly one "\r\n" or bare "\n". These lines are framing discarded
// after parsing, so an allocated string is fine off the hot path; the
// per-line maxHeaderBytes bound prevents ballooning.
func readLineAlloc(br *bufio.Reader) (string, error) {
	var long []byte
	for {
		frag, err := br.ReadSlice('\n')
		if err == nil {
			if long == nil {
				if len(frag) > maxHeaderBytes {
					// Unreachable with the server's 4 KiB bufio
					// readers, but the bound must not depend on the
					// caller's buffer size.
					return "", ErrHeaderTooBig
				}
				return trimLineEnd(string(frag)), nil
			}
			long = append(long, frag...)
			if len(long) > maxHeaderBytes {
				return "", ErrHeaderTooBig
			}
			return trimLineEnd(string(long)), nil
		}
		if err != bufio.ErrBufferFull {
			return "", err
		}
		// frag aliases br's internal buffer; copy before reading on.
		long = append(long, frag...)
		if len(long) > maxHeaderBytes {
			return "", ErrHeaderTooBig
		}
	}
}

// trimLineEnd strips exactly one "\r\n" (or bare "\n") terminator.
func trimLineEnd(line string) string {
	line = strings.TrimSuffix(line, "\n")
	return strings.TrimSuffix(line, "\r")
}

// readBodyInto appends the framed body to dst (the message's pooled
// buffer, already holding the head) and returns the extended slice plus
// the number of body bytes read. Growing dst may move it to a fresh
// array; head strings keep aliasing the old bytes, which stay valid for
// the message's lifetime either way. On a read error the returned slice
// is dst cut back to the body's start, so stale bytes of a reused
// buffer never show as body.
func readBodyInto(br *bufio.Reader, h *Header, dst []byte) ([]byte, int, error) {
	if strings.EqualFold(h.Get("Transfer-Encoding"), "chunked") {
		return readChunkedInto(br, dst)
	}
	cl := h.Get("Content-Length")
	if cl == "" {
		return dst, 0, nil
	}
	n, err := strconv.Atoi(cl)
	if err != nil || n < 0 {
		return dst, 0, fmt.Errorf("%w: bad Content-Length %q", ErrMalformed, cl)
	}
	if n > maxBodyBytes {
		return dst, 0, ErrBodyTooBig
	}
	start := len(dst)
	dst = extend(dst, n)
	if _, err := io.ReadFull(br, dst[start:]); err != nil {
		return dst[:start], 0, err
	}
	return dst, n, nil
}

func readChunkedInto(br *bufio.Reader, dst []byte) ([]byte, int, error) {
	start := len(dst)
	for {
		line, err := readLineAlloc(br)
		if err != nil {
			return dst[:start], 0, err
		}
		// Ignore chunk extensions.
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		size, err := strconv.ParseInt(strings.TrimSpace(line), 16, 32)
		if err != nil || size < 0 {
			return dst[:start], 0, fmt.Errorf("%w: bad chunk size %q", ErrMalformed, line)
		}
		if size == 0 {
			// Trailer section: read until blank line.
			for {
				t, err := readLineAlloc(br)
				if err != nil {
					return dst[:start], 0, err
				}
				if t == "" {
					return dst, len(dst) - start, nil
				}
			}
		}
		if len(dst)-start+int(size) > maxBodyBytes {
			return dst[:start], 0, ErrBodyTooBig
		}
		chunkStart := len(dst)
		dst = extend(dst, int(size))
		if _, err := io.ReadFull(br, dst[chunkStart:]); err != nil {
			return dst[:start], 0, err
		}
		// Trailing CRLF after each chunk.
		if _, err := readLineAlloc(br); err != nil {
			return dst[:start], 0, err
		}
	}
}

// extend lengthens dst by n bytes the caller is about to overwrite.
// Within capacity the bytes are not cleared; only a grow allocates.
func extend(dst []byte, n int) []byte {
	return slices.Grow(dst, n)[:len(dst)+n]
}
