package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pipeListener hands out pre-arranged net.Pipe server ends; pipeDialer
// returns the matching client ends. Together they form the in-memory rig
// the batch write-count tests run on: pipes carry bytes verbatim with no
// simulated-network segmentation, so each conn.Write is observable.
type pipeListener struct {
	ch     chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{ch: make(chan net.Conn, 16), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.closed:
		return nil, errors.New("pipeListener: closed")
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr("pipe") }

type pipeAddr string

func (a pipeAddr) Network() string { return "pipe" }
func (a pipeAddr) String() string  { return string(a) }

// writeCountConn counts Write calls on the underlying connection — the
// write-counting test double the batching acceptance criteria ask for
// (each Write on a real socket is one syscall).
type writeCountConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *writeCountConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// pipeDialer dials the registered listener with a fresh pipe, counting
// the client side's writes.
type pipeDialer struct {
	ln     *pipeListener
	writes atomic.Int64
	dials  atomic.Int64
}

func (d *pipeDialer) DialTimeout(addr string, _ time.Duration) (net.Conn, error) {
	local, remote := net.Pipe()
	select {
	case d.ln.ch <- remote:
	case <-d.ln.closed:
		local.Close()
		return nil, errors.New("pipeDialer: listener closed")
	}
	d.dials.Add(1)
	return &writeCountConn{Conn: local, writes: &d.writes}, nil
}

// TestStreamDoBatchOneWrite pins the client half of the tentpole: a
// burst of pipelined requests leaves the stream in exactly ONE write
// call, and the responses come back in pipeline order, each valid for
// its callback.
func TestStreamDoBatchOneWrite(t *testing.T) {
	ln := newPipeListener()
	defer ln.Close()
	srv := NewServer(HandlerFunc(func(ex *Exchange) {
		ex.ReplyBytes(StatusOK, ex.Req.Body)
	}), ServerConfig{})
	srv.Start(ln)
	defer srv.Close()

	dialer := &pipeDialer{ln: ln}
	cli := NewClient(dialer, ClientConfig{})
	defer cli.Close()
	s := cli.Stream("svc:80")
	defer s.Close()

	const n = 8
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = NewRequest("POST", "/echo", []byte(fmt.Sprintf("payload-%d", i)))
	}
	var got []string
	done, err := s.DoBatch(reqs, time.Second, func(i int, resp *Response) {
		if resp.Status != StatusOK {
			t.Errorf("response %d: HTTP %d", i, resp.Status)
		}
		got = append(got, string(resp.Body)) // detach: valid only in the callback
	})
	if err != nil || done != n {
		t.Fatalf("DoBatch = (%d, %v), want (%d, nil)", done, err, n)
	}
	for i, body := range got {
		if want := fmt.Sprintf("payload-%d", i); body != want {
			t.Errorf("response %d body = %q, want %q (pipeline order broken?)", i, body, want)
		}
	}
	if w := dialer.writes.Load(); w != 1 {
		t.Errorf("burst of %d requests took %d writes, want 1", n, w)
	}
	if d := dialer.dials.Load(); d != 1 {
		t.Errorf("dials = %d, want 1", d)
	}

	// A second burst reuses the stream's pinned connection.
	done, err = s.DoBatch(reqs[:3], time.Second, func(int, *Response) {})
	if err != nil || done != 3 {
		t.Fatalf("second DoBatch = (%d, %v)", done, err)
	}
	if d := dialer.dials.Load(); d != 1 {
		t.Errorf("second burst dialed again (dials = %d), want pinned connection reuse", d)
	}
}

// TestServeConnPipelinedRepliesCoalesce pins the server half: replies to
// requests that arrived pipelined in one burst leave in a single flush
// (one Write covering K replies), while a one-at-a-time client still
// gets one write per reply.
func TestServeConnPipelinedRepliesCoalesce(t *testing.T) {
	srv := NewServer(HandlerFunc(func(ex *Exchange) {
		ex.ReplyBytes(StatusOK, ex.Req.Body)
	}), ServerConfig{})
	ln := newPipeListener()
	defer ln.Close()
	srv.Start(ln)
	defer srv.Close()

	client, server := net.Pipe()
	defer client.Close()
	var serverWrites atomic.Int64
	ln.ch <- &writeCountConn{Conn: server, writes: &serverWrites}

	const k = 6
	var batch bytes.Buffer
	for i := 0; i < k; i++ {
		fmt.Fprintf(&batch, "POST /e HTTP/1.1\r\nContent-Length: 5\r\n\r\nreq-%d", i)
	}
	go client.Write(batch.Bytes())

	br := bufio.NewReader(client)
	for i := 0; i < k; i++ {
		resp, err := readResponse(t, br)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if want := fmt.Sprintf("req-%d", i); string(resp.Body) != want {
			t.Fatalf("response %d body = %q, want %q", i, resp.Body, want)
		}
	}
	if w := serverWrites.Load(); w != 1 {
		t.Errorf("%d pipelined replies took %d writes, want 1 coalesced flush", k, w)
	}

	// Sequential requests (input drained between them) flush per reply.
	for i := 0; i < 2; i++ {
		go client.Write([]byte("POST /e HTTP/1.1\r\nContent-Length: 3\r\n\r\nseq"))
		resp, err := readResponse(t, br)
		if err != nil {
			t.Fatalf("sequential response %d: %v", i, err)
		}
		if string(resp.Body) != "seq" {
			t.Fatalf("sequential body = %q", resp.Body)
		}
	}
	if w := serverWrites.Load(); w != 3 {
		t.Errorf("after 2 sequential exchanges writes = %d, want 3 (1 batched + 2 single)", w)
	}
}

// TestDoBatchSingleAndEmpty covers the degenerate burst sizes: zero
// requests is a no-op, and one request is a burst of one that, like any
// burst, leaves in a single write.
func TestDoBatchSingleAndEmpty(t *testing.T) {
	ln := newPipeListener()
	defer ln.Close()
	srv := NewServer(HandlerFunc(func(ex *Exchange) {
		ex.ReplyBytes(StatusOK, ex.Req.Body)
	}), ServerConfig{})
	srv.Start(ln)
	defer srv.Close()
	dialer := &pipeDialer{ln: ln}
	cli := NewClient(dialer, ClientConfig{})
	defer cli.Close()
	s := cli.Stream("svc:80")
	defer s.Close()

	if done, err := s.DoBatch(nil, time.Second, nil); done != 0 || err != nil {
		t.Fatalf("empty DoBatch = (%d, %v)", done, err)
	}
	var body string
	done, err := s.DoBatch([]*Request{NewRequest("POST", "/e", []byte("solo"))}, time.Second,
		func(_ int, resp *Response) { body = string(resp.Body) })
	if done != 1 || err != nil || body != "solo" {
		t.Fatalf("single DoBatch = (%d, %v), body %q", done, err, body)
	}
	if w := dialer.writes.Load(); w != 1 {
		t.Errorf("burst of one took %d writes, want 1", w)
	}
}

// TestDoBatchDisableKeepAlive pins DoBatch under DisableKeepAlive: each
// request is its own burst of one on a fresh connection, the callbacks
// still see batch indices in order, and no connection is kept.
func TestDoBatchDisableKeepAlive(t *testing.T) {
	ln := newPipeListener()
	defer ln.Close()
	srv := NewServer(HandlerFunc(func(ex *Exchange) {
		ex.ReplyBytes(StatusOK, ex.Req.Body)
	}), ServerConfig{})
	srv.Start(ln)
	defer srv.Close()
	dialer := &pipeDialer{ln: ln}
	cli := NewClient(dialer, ClientConfig{DisableKeepAlive: true})
	defer cli.Close()
	s := cli.Stream("svc:80")
	defer s.Close()

	reqs := make([]*Request, 3)
	for i := range reqs {
		reqs[i] = NewRequest("POST", "/e", []byte(fmt.Sprintf("m%d", i)))
	}
	var seen []string
	done, err := s.DoBatch(reqs, time.Second, func(i int, resp *Response) {
		seen = append(seen, fmt.Sprintf("%d:%s", i, resp.Body))
	})
	if done != 3 || err != nil {
		t.Fatalf("DoBatch = (%d, %v), want (3, nil)", done, err)
	}
	if got := strings.Join(seen, " "); got != "0:m0 1:m1 2:m2" {
		t.Fatalf("callbacks = %q, want in order with batch indices", got)
	}
	if d := dialer.dials.Load(); d != 3 {
		t.Errorf("dials = %d, want 3 (one connection per request)", d)
	}
	s.Close()
	if n := cli.IdleConns("svc:80"); n != 0 {
		t.Errorf("idle conns = %d, want 0", n)
	}
}

// TestEncodeSteadyStateAllocs is the encoder's allocation gate: with the
// buffer pool warm, encoding a burst of small-bodied requests — one, or
// several — allocates nothing. Every request the client sends goes
// through encodeBatch.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool caching is randomized under the race detector")
	}
	reqs := make([]*Request, 3)
	for i := range reqs {
		reqs[i] = NewRequest("POST", "/msg", []byte("<soap:Envelope>ping</soap:Envelope>"))
		reqs[i].Header.Set("Content-Type", "text/xml; charset=utf-8")
	}
	for _, n := range []int{1, 3} {
		encode := func() {
			if err := encodeBatch(io.Discard, reqs[:n], "wsd:9100", false); err != nil {
				t.Fatal(err)
			}
		}
		encode() // warm the buffer pool
		if allocs := testing.AllocsPerRun(100, encode); allocs != 0 {
			t.Errorf("encoding a burst of %d allocated %.1f times per op, want 0", n, allocs)
		}
	}
}

// TestDoBatchMidBatchClose pins the error-isolation contract: a peer
// that answers part of a pipelined burst and then drops the connection
// yields done = answered count and a non-nil error, so the caller can
// requeue the tail.
func TestDoBatchMidBatchClose(t *testing.T) {
	ln := newPipeListener()
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(conn)
		// Answer the first two requests, then slam the connection.
		var req Request
		for i := 0; i < 2; i++ {
			if err := ReadRequestInto(br, &req); err != nil {
				conn.Close()
				return
			}
			req.Release()
		}
		conn.Write([]byte("HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n" +
			"HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n"))
		conn.Close()
	}()
	cli := NewClient(&pipeDialer{ln: ln}, ClientConfig{})
	defer cli.Close()
	s := cli.Stream("svc:80")
	defer s.Close()

	reqs := make([]*Request, 5)
	for i := range reqs {
		reqs[i] = NewRequest("POST", "/in", []byte("m"))
	}
	var handled int
	done, err := s.DoBatch(reqs, time.Second, func(i int, resp *Response) {
		if resp.Status != StatusAccepted {
			t.Errorf("response %d: HTTP %d", i, resp.Status)
		}
		handled++
	})
	if done != 2 || handled != 2 {
		t.Fatalf("done = %d (handled %d), want 2", done, handled)
	}
	if err == nil {
		t.Fatal("mid-batch close must surface an error for the tail")
	}
}

// TestEncodeBatchBigBody exercises the vectored-chain path: a body above
// coalesceLimit is not copied into the shared buffer but still arrives
// byte-identical, interleaved correctly with coalesced neighbors.
func TestEncodeBatchBigBody(t *testing.T) {
	big := bytes.Repeat([]byte("x"), coalesceLimit+100)
	reqs := []*Request{
		NewRequest("POST", "/a", []byte("small-1")),
		NewRequest("POST", "/b", big),
		NewRequest("POST", "/c", []byte("small-2")),
	}
	var out bytes.Buffer
	if err := encodeBatch(&out, reqs, "host:80", false); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&out)
	for i, want := range [][]byte{[]byte("small-1"), big, []byte("small-2")} {
		req, err := readRequest(t, br)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !bytes.Equal(req.Body, want) {
			t.Fatalf("request %d body mismatch (%d vs %d bytes)", i, len(req.Body), len(want))
		}
		if req.Header.Get("Host") != "host:80" {
			t.Fatalf("request %d Host = %q", i, req.Header.Get("Host"))
		}
	}
	if strings.Contains(out.String(), "\r\n\r\n\r\n") {
		t.Fatal("batch framing produced stray blank lines")
	}
}
