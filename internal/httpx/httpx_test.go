package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
)

func TestCanonicalKey(t *testing.T) {
	cases := map[string]string{
		"content-type":     "Content-Type",
		"CONTENT-LENGTH":   "Content-Length",
		"soapaction":       "SOAPAction",
		"x-custom-header":  "X-Custom-Header",
		"www-authenticate": "WWW-Authenticate",
	}
	for in, want := range cases {
		if got := CanonicalKey(in); got != want {
			t.Errorf("CanonicalKey(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHeaderSetGetDel(t *testing.T) {
	h := Header{}
	h.Set("content-type", "text/xml")
	if got := h.Get("Content-Type"); got != "text/xml" {
		t.Fatalf("Get = %q", got)
	}
	if !h.Has("CONTENT-TYPE") {
		t.Fatal("Has failed across casing")
	}
	h.Del("Content-Type")
	if h.Has("content-type") {
		t.Fatal("Del failed")
	}
}

// readRequest reads one request into a fresh struct through
// ReadRequestInto; its pooled buffer is released when the test ends.
func readRequest(t testing.TB, br *bufio.Reader) (*Request, error) {
	req := new(Request)
	if err := ReadRequestInto(br, req); err != nil {
		return nil, err
	}
	t.Cleanup(req.Release)
	return req, nil
}

// readResponse is readRequest for responses.
func readResponse(t testing.TB, br *bufio.Reader) (*Response, error) {
	resp := new(Response)
	if err := ReadResponseInto(br, resp); err != nil {
		return nil, err
	}
	t.Cleanup(resp.Release)
	return resp, nil
}

// encodeRequest renders req as the client sends it alone: a burst of one.
func encodeRequest(t testing.TB, req *Request) *bufio.Reader {
	var buf bytes.Buffer
	if err := encodeBatch(&buf, []*Request{req}, "", false); err != nil {
		t.Fatal(err)
	}
	return bufio.NewReader(&buf)
}

// encodeReply renders a reply as the server does, through an Exchange.
func encodeReply(status int, body []byte) *bufio.Reader {
	var ex Exchange
	ex.ReplyBytes(status, body)
	wire, _ := ex.appendReply(nil)
	return bufio.NewReader(bytes.NewReader(wire))
}

func TestRequestRoundTrip(t *testing.T) {
	req := NewRequest("POST", "/wsd/echo", []byte("<soap/>"))
	req.Header.Set("Content-Type", "text/xml; charset=utf-8")
	req.Header.Set("SOAPAction", `""`)

	got, err := readRequest(t, encodeRequest(t, req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "POST" || got.Path != "/wsd/echo" || got.Proto != "HTTP/1.1" {
		t.Fatalf("request line = %s %s %s", got.Method, got.Path, got.Proto)
	}
	if string(got.Body) != "<soap/>" {
		t.Fatalf("body = %q", got.Body)
	}
	if got.Header.Get("SOAPAction") != `""` {
		t.Fatalf("SOAPAction = %q", got.Header.Get("SOAPAction"))
	}

	// A request read with chunked framing re-encodes with Content-Length
	// framing alone: the stored Transfer-Encoding must not reach the wire,
	// or the next reader would look for chunks that are not there.
	chunked, err := readRequest(t, bufio.NewReader(strings.NewReader(
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n")))
	if err != nil {
		t.Fatal(err)
	}
	got, err = readRequest(t, encodeRequest(t, chunked))
	if err != nil {
		t.Fatalf("re-read of a re-encoded chunked request: %v", err)
	}
	if string(got.Body) != "Wikipedia" || got.Header.Has("Transfer-Encoding") || got.Header.Get("Content-Length") != "9" {
		t.Fatalf("re-encoded chunked request: body %q, Transfer-Encoding %q, Content-Length %q",
			got.Body, got.Header.Get("Transfer-Encoding"), got.Header.Get("Content-Length"))
	}
}

func TestResponseRoundTrip(t *testing.T) {
	got, err := readResponse(t, encodeReply(StatusAccepted, []byte("queued")))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusAccepted || got.Reason != "Accepted" {
		t.Fatalf("status = %d %q", got.Status, got.Reason)
	}
	if string(got.Body) != "queued" {
		t.Fatalf("body = %q", got.Body)
	}
}

func TestEmptyBodyRoundTrip(t *testing.T) {
	got, err := readResponse(t, encodeReply(StatusOK, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Body) != 0 {
		t.Fatalf("body = %q, want empty", got.Body)
	}
}

func TestReadChunkedBody(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n"
	resp, err := readResponse(t, bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "Wikipedia" {
		t.Fatalf("chunked body = %q", resp.Body)
	}
}

func TestReadChunkedWithExtensionAndTrailer(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"3;ext=1\r\nabc\r\n0\r\nX-Trailer: v\r\n\r\n"
	resp, err := readResponse(t, bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "abc" {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestMalformedMessages(t *testing.T) {
	bad := []string{
		"NOT-HTTP\r\n\r\n",
		"GET /\r\n\r\n",                          // missing proto
		"HTTP/1.1 abc OK\r\n\r\n",                // bad status (response)
		"POST / HTTP/1.1\r\nNoColonHere\r\n\r\n", // bad header
		"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
	}
	for _, raw := range bad {
		if _, err := readRequest(t, bufio.NewReader(strings.NewReader(raw))); err == nil {
			t.Errorf("ReadRequestInto(%q) succeeded", raw)
		}
	}
	if _, err := readResponse(t, bufio.NewReader(strings.NewReader("HTTP/1.1 abc OK\r\n\r\n"))); err == nil {
		t.Error("ReadResponseInto with bad status succeeded")
	}
}

func TestBodyTooBig(t *testing.T) {
	raw := "POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
	if _, err := readRequest(t, bufio.NewReader(strings.NewReader(raw))); !errors.Is(err, ErrBodyTooBig) {
		t.Fatalf("err = %v, want ErrBodyTooBig", err)
	}
}

// Property: any request with printable token method/path and arbitrary
// binary body survives a wire round trip bit-exactly.
func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(body []byte, pathSuffix uint16) bool {
		req := NewRequest("POST", "/p"+"/"+strings.Repeat("x", int(pathSuffix%32)), body)
		req.Header.Set("Content-Type", "application/octet-stream")
		got, err := readRequest(t, encodeRequest(t, req))
		if err != nil {
			return false
		}
		return bytes.Equal(got.Body, body) && got.Path == req.Path
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// simEnv is a tiny client/server rig over the simulated network.
type simEnv struct {
	clk    *clock.Virtual
	nw     *netsim.Network
	server *Server
	client *Client
	addr   string
}

func newSimEnv(t *testing.T, handler Handler, scfg ServerConfig, ccfg ClientConfig) *simEnv {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	t.Cleanup(clk.Stop)
	nw := netsim.New(clk, 42)
	srvHost := nw.AddHost("server", netsim.ProfileLAN())
	cliHost := nw.AddHost("client", netsim.ProfileLAN())
	ln, err := srvHost.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Clock = clk
	ccfg.Clock = clk
	srv := NewServer(handler, scfg)
	srv.Start(ln)
	t.Cleanup(func() { srv.Close() })
	cli := NewClient(cliHost, ccfg)
	t.Cleanup(cli.Close)
	return &simEnv{clk: clk, nw: nw, server: srv, client: cli, addr: "server:80"}
}

func echoHandler(ex *Exchange) {
	ex.Header().Set("Content-Type", ex.Req.Header.Get("Content-Type"))
	ex.ReplyBytes(StatusOK, ex.Req.Body)
}

func TestClientServerOverSimNetwork(t *testing.T) {
	env := newSimEnv(t, HandlerFunc(echoHandler), ServerConfig{}, ClientConfig{})
	req := NewRequest("POST", "/echo", []byte("ping"))
	resp, err := env.client.Do(env.addr, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK || string(resp.Body) != "ping" {
		t.Fatalf("resp = %d %q", resp.Status, resp.Body)
	}
	resp.Release()
	if env.server.Requests.Value() != 1 {
		t.Fatalf("server requests = %d", env.server.Requests.Value())
	}
}

func TestKeepAliveReusesConnection(t *testing.T) {
	env := newSimEnv(t, HandlerFunc(echoHandler), ServerConfig{}, ClientConfig{})
	for i := 0; i < 5; i++ {
		resp, err := env.client.Do(env.addr, NewRequest("POST", "/echo", []byte("x")))
		if err != nil {
			t.Fatal(err)
		}
		// The release is what returns the connection for reuse.
		resp.Release()
	}
	// All five exchanges over one connection.
	if peak := env.server.ActiveConns.Peak(); peak != 1 {
		t.Fatalf("peak server conns = %d, want 1 (keep-alive reuse)", peak)
	}
}

func TestDisableKeepAliveOpensPerRequest(t *testing.T) {
	env := newSimEnv(t, HandlerFunc(echoHandler), ServerConfig{}, ClientConfig{DisableKeepAlive: true})
	for i := 0; i < 3; i++ {
		resp, err := env.client.Do(env.addr, NewRequest("POST", "/echo", []byte("x")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	host := env.nw.Host("server")
	if host.PeakConns() < 1 {
		t.Fatal("no connections observed")
	}
	// Each request used a fresh connection, so total accepted ≥ 3;
	// peak concurrency stays low because each closes before the next.
	if env.server.Requests.Value() != 3 {
		t.Fatalf("requests = %d", env.server.Requests.Value())
	}
}

func TestServerHandles1_0Close(t *testing.T) {
	env := newSimEnv(t, HandlerFunc(echoHandler), ServerConfig{}, ClientConfig{})
	req := NewRequest("POST", "/echo", []byte("x"))
	req.Proto = "HTTP/1.0"
	resp, err := env.client.Do(env.addr, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusOK {
		t.Fatalf("status = %d", resp.Status)
	}
	resp.Release()
}

func TestSlowHandlerTimesOutClient(t *testing.T) {
	clkCh := make(chan clock.Clock, 1)
	slow := HandlerFunc(func(ex *Exchange) {
		clk := <-clkCh
		clkCh <- clk
		clk.Sleep(10 * time.Second) // longer than the client budget
		ex.ReplyBytes(StatusOK, nil)
	})
	env := newSimEnv(t, slow, ServerConfig{}, ClientConfig{RequestTimeout: 2 * time.Second})
	clkCh <- env.clk
	_, err := env.client.Do(env.addr, NewRequest("POST", "/slow", nil))
	if err == nil {
		t.Fatal("slow exchange did not time out")
	}
	var nerr interface{ Timeout() bool }
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("error = %v, want timeout", err)
	}
}

func TestPooledConnSurvivesServerIdleClose(t *testing.T) {
	env := newSimEnv(t, HandlerFunc(echoHandler),
		ServerConfig{IdleTimeout: time.Second}, ClientConfig{})
	if resp, err := env.client.Do(env.addr, NewRequest("POST", "/e", []byte("1"))); err != nil {
		t.Fatal(err)
	} else {
		resp.Release()
	}
	// Let the server's idle timeout reap the pooled connection, then
	// issue another request: the client must retry on a fresh dial.
	env.clk.Sleep(3 * time.Second)
	resp, err := env.client.Do(env.addr, NewRequest("POST", "/e", []byte("2")))
	if err != nil {
		t.Fatalf("request after idle close failed: %v", err)
	}
	if string(resp.Body) != "2" {
		t.Fatalf("body = %q", resp.Body)
	}
	resp.Release()
}

func TestPanicHandlerReturns500(t *testing.T) {
	env := newSimEnv(t, HandlerFunc(func(*Exchange) { panic("boom") }),
		ServerConfig{}, ClientConfig{})
	resp, err := env.client.Do(env.addr, NewRequest("POST", "/p", nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.Status)
	}
	resp.Release()
}

func TestMaxHandlersLimitsConcurrency(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	defer clk.Stop()
	nw := netsim.New(clk, 7)
	srvHost := nw.AddHost("s2", netsim.ProfileLAN())
	cliHost := nw.AddHost("c2", netsim.ProfileLAN())
	ln, _ := srvHost.Listen(80)

	type counter struct {
		mu     chan struct{}
		active int
		peak   int
	}
	cnt := &counter{mu: make(chan struct{}, 1)}
	cnt.mu <- struct{}{}
	handler := HandlerFunc(func(ex *Exchange) {
		<-cnt.mu
		cnt.active++
		if cnt.active > cnt.peak {
			cnt.peak = cnt.active
		}
		cnt.mu <- struct{}{}
		clk.Sleep(100 * time.Millisecond)
		<-cnt.mu
		cnt.active--
		cnt.mu <- struct{}{}
		ex.ReplyBytes(StatusOK, nil)
	})
	srv := NewServer(handler, ServerConfig{Clock: clk, MaxHandlers: 2})
	srv.Start(ln)
	defer srv.Close()

	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			cli := NewClient(cliHost, ClientConfig{Clock: clk})
			resp, err := cli.Do("s2:80", NewRequest("POST", "/x", nil))
			if err == nil {
				resp.Release()
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	<-cnt.mu
	peakSeen := cnt.peak
	cnt.mu <- struct{}{}
	if peakSeen > 2 {
		t.Fatalf("peak concurrent handlers = %d, want <= 2", peakSeen)
	}
}

func TestServerCloseStopsServe(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	defer clk.Stop()
	nw := netsim.New(clk, 9)
	h := nw.AddHost("h", netsim.ProfileLAN())
	ln, _ := h.Listen(80)
	srv := NewServer(HandlerFunc(echoHandler), ServerConfig{Clock: clk})
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}
