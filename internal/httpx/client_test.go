package httpx

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/netsim"
)

// countingDialer wraps a Dialer and counts dials — the "fake dialer" the
// idle-pool tests observe evictions through.
type countingDialer struct {
	inner Dialer
	dials atomic.Int64
}

func (d *countingDialer) DialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	d.dials.Add(1)
	return d.inner.DialTimeout(addr, timeout)
}

// newCountingEnv is newSimEnv with the client's dialer wrapped so tests
// can assert how many fresh connections were opened.
func newCountingEnv(t *testing.T, ccfg ClientConfig) (*simEnv, *countingDialer) {
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
	srv := NewServer(HandlerFunc(echoHandler), ServerConfig{Clock: clk})
	srv.Start(ln)
	t.Cleanup(func() { srv.Close() })
	dialer := &countingDialer{inner: cliHost}
	ccfg.Clock = clk
	cli := NewClient(dialer, ccfg)
	t.Cleanup(cli.Close)
	return &simEnv{clk: clk, nw: nw, server: srv, client: cli, addr: "server:80"}, dialer
}

func doEcho(t *testing.T, env *simEnv, body string) {
	t.Helper()
	resp, err := env.client.Do(env.addr, NewRequest("POST", "/e", []byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != body {
		t.Fatalf("body = %q, want %q", resp.Body, body)
	}
	resp.Release()
}

// TestIdleConnTTLEvicts pins the idle-connection hygiene satellite: a
// pooled connection older than IdleConnTTL is evicted (closed) instead
// of reused, and the next exchange dials fresh. The server's idle
// timeout is set high so only the client-side TTL can explain the
// eviction.
func TestIdleConnTTLEvicts(t *testing.T) {
	env, dialer := newCountingEnv(t, ClientConfig{IdleConnTTL: 5 * time.Second})
	doEcho(t, env, "1")
	if got := env.client.IdleConns(env.addr); got != 1 {
		t.Fatalf("idle conns after release = %d, want 1", got)
	}
	if dialer.dials.Load() != 1 {
		t.Fatalf("dials = %d, want 1", dialer.dials.Load())
	}

	// Within the TTL: the pooled connection is reused.
	env.clk.Sleep(2 * time.Second)
	doEcho(t, env, "2")
	if dialer.dials.Load() != 1 {
		t.Fatalf("dials after in-TTL reuse = %d, want 1", dialer.dials.Load())
	}

	// Past the TTL: the parked connection is evicted and a fresh dial
	// carries the exchange.
	env.clk.Sleep(6 * time.Second)
	if got := env.client.IdleConns(env.addr); got != 0 {
		t.Fatalf("idle conns past TTL = %d, want 0", got)
	}
	doEcho(t, env, "3")
	if dialer.dials.Load() != 2 {
		t.Fatalf("dials after TTL eviction = %d, want 2", dialer.dials.Load())
	}
}

// TestIdleConnTTLDisabled checks a negative TTL turns expiry off: the
// stale connection stays parked indefinitely (and the usual dead-conn
// retry would cover its staleness on next use).
func TestIdleConnTTLDisabled(t *testing.T) {
	env, _ := newCountingEnv(t, ClientConfig{IdleConnTTL: -1})
	doEcho(t, env, "1")
	env.clk.Sleep(10 * time.Minute)
	if got := env.client.IdleConns(env.addr); got != 1 {
		t.Fatalf("idle conns with TTL disabled = %d, want 1", got)
	}
}

// TestMaxIdlePerHostCapEvicts checks the pool cap still closes overflow
// connections (the pre-TTL behavior, kept).
func TestMaxIdlePerHostCapEvicts(t *testing.T) {
	env, _ := newCountingEnv(t, ClientConfig{MaxIdlePerHost: 2})
	// Three concurrent exchanges force three connections; releasing all
	// three can park at most two.
	resps := make([]*Response, 3)
	for i := range resps {
		resp, err := env.client.Do(env.addr, NewRequest("POST", "/e", []byte("x")))
		if err != nil {
			t.Fatal(err)
		}
		resps[i] = resp
	}
	for _, r := range resps {
		r.Release()
	}
	if got := env.client.IdleConns(env.addr); got != 2 {
		t.Fatalf("idle conns = %d, want cap 2", got)
	}
}

// streamEcho sends body as a burst of one on s and checks the echo.
func streamEcho(t *testing.T, s *Stream, body string) error {
	t.Helper()
	var got string
	done, err := s.DoBatch([]*Request{NewRequest("POST", "/e", []byte(body))}, DefaultRequestTimeout,
		func(_ int, resp *Response) {
			if resp.Status != StatusOK {
				t.Errorf("stream resp = HTTP %d", resp.Status)
			}
			got = string(resp.Body)
		})
	if err != nil {
		return err
	}
	if done != 1 || got != body {
		t.Fatalf("stream burst = (%d), body %q, want (1) %q", done, got, body)
	}
	return nil
}

// TestStreamPipelinesOneConnection pins the Stream session contract:
// consecutive bursts ride one connection without touching the idle
// pool, and the server sees a single connection throughout.
func TestStreamPipelinesOneConnection(t *testing.T) {
	env, dialer := newCountingEnv(t, ClientConfig{})
	s := env.client.Stream(env.addr)
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := streamEcho(t, s, "ping"); err != nil {
			t.Fatal(err)
		}
		if got := env.client.IdleConns(env.addr); got != 0 {
			t.Fatalf("stream leaked its connection into the idle pool (%d)", got)
		}
	}
	if dialer.dials.Load() != 1 {
		t.Fatalf("dials = %d, want 1", dialer.dials.Load())
	}
	if peak := env.server.ActiveConns.Peak(); peak != 1 {
		t.Fatalf("peak server conns = %d, want 1", peak)
	}
}

// TestStreamBusyUntilRelease pins the sequential-session rule: while a
// burst runs — here, from inside its response callback — the stream
// refuses another burst until the running one has released its last
// response.
func TestStreamBusyUntilRelease(t *testing.T) {
	env, _ := newCountingEnv(t, ClientConfig{})
	s := env.client.Stream(env.addr)
	defer s.Close()
	var nested error
	done, err := s.DoBatch([]*Request{NewRequest("POST", "/e", []byte("a"))}, DefaultRequestTimeout,
		func(int, *Response) {
			_, nested = s.DoBatch([]*Request{NewRequest("POST", "/e", []byte("b"))}, DefaultRequestTimeout,
				func(int, *Response) { t.Error("nested burst ran") })
		})
	if done != 1 || err != nil {
		t.Fatalf("outer burst = (%d, %v)", done, err)
	}
	if nested != ErrStreamBusy {
		t.Fatalf("burst from inside a callback: err = %v, want ErrStreamBusy", nested)
	}
	if err := streamEcho(t, s, "b"); err != nil {
		t.Fatal(err)
	}
}

// TestStreamCloseParksConnection checks the handoff between sessions:
// Close returns the healthy connection to the shared idle pool, and the
// next Stream (or Do) to the same destination adopts it instead of
// dialing.
func TestStreamCloseParksConnection(t *testing.T) {
	env, dialer := newCountingEnv(t, ClientConfig{})
	s := env.client.Stream(env.addr)
	if err := streamEcho(t, s, "a"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if got := env.client.IdleConns(env.addr); got != 1 {
		t.Fatalf("idle conns after stream close = %d, want 1", got)
	}
	if err := streamEcho(t, s, "x"); err != ErrStreamClosed {
		t.Fatalf("burst on closed stream: err = %v, want ErrStreamClosed", err)
	}

	// A new binding to the same destination adopts the parked conn.
	s2 := env.client.Stream(env.addr)
	defer s2.Close()
	if err := streamEcho(t, s2, "b"); err != nil {
		t.Fatal(err)
	}
	if dialer.dials.Load() != 1 {
		t.Fatalf("dials = %d, want 1 (second stream must adopt the parked conn)", dialer.dials.Load())
	}
}

// TestStreamCloseWhileLentHandsOff covers closing a stream while its
// connection is lent to a running burst: Close is called from inside
// the burst's callback, and the connection reaches the idle pool only
// when the burst ends.
func TestStreamCloseWhileLentHandsOff(t *testing.T) {
	env, _ := newCountingEnv(t, ClientConfig{})
	s := env.client.Stream(env.addr)
	idleInCallback := -1
	done, err := s.DoBatch([]*Request{NewRequest("POST", "/e", []byte("a"))}, DefaultRequestTimeout,
		func(int, *Response) {
			s.Close()
			idleInCallback = env.client.IdleConns(env.addr)
		})
	if done != 1 || err != nil {
		t.Fatalf("burst = (%d, %v)", done, err)
	}
	if idleInCallback != 0 {
		t.Fatalf("connection parked while still lent to the burst (%d idle)", idleInCallback)
	}
	if got := env.client.IdleConns(env.addr); got != 1 {
		t.Fatalf("idle conns after deferred handoff = %d, want 1", got)
	}
}

// TestStreamSurvivesServerIdleClose: a stream whose pinned connection
// the server reaped redials transparently — the stale-connection retry,
// taken only while no response has been handled.
func TestStreamSurvivesServerIdleClose(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	defer clk.Stop()
	nw := netsim.New(clk, 7)
	srvHost := nw.AddHost("server", netsim.ProfileLAN())
	cliHost := nw.AddHost("client", netsim.ProfileLAN())
	ln, _ := srvHost.Listen(80)
	srv := NewServer(HandlerFunc(echoHandler), ServerConfig{Clock: clk, IdleTimeout: time.Second})
	srv.Start(ln)
	defer srv.Close()
	cli := NewClient(cliHost, ClientConfig{Clock: clk})
	defer cli.Close()

	s := cli.Stream("server:80")
	defer s.Close()
	if err := streamEcho(t, s, "1"); err != nil {
		t.Fatal(err)
	}
	clk.Sleep(3 * time.Second) // server reaps the held connection
	if err := streamEcho(t, s, "2"); err != nil {
		t.Fatalf("stream burst after server idle close: %v", err)
	}
}
