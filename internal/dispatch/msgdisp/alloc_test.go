package msgdisp

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// memListener is an in-memory net.Listener fed by memNet.DialTimeout
// with net.Pipe connections: the full httpx server/client stack runs
// over it with no sockets and no simulated-network bookkeeping, which
// is what an allocation gate wants under the measurement loop.
type memListener struct {
	ch     chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newMemListener() *memListener {
	return &memListener{ch: make(chan net.Conn, 16), closed: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.closed:
		return nil, errors.New("memListener: closed")
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr("mem") }

type memAddr string

func (a memAddr) Network() string { return "mem" }
func (a memAddr) String() string  { return string(a) }

// memNet routes httpx dials to in-memory listeners by address.
type memNet map[string]*memListener

func (n memNet) DialTimeout(addr string, _ time.Duration) (net.Conn, error) {
	ln, ok := n[addr]
	if !ok {
		return nil, errors.New("memNet: no listener at " + addr)
	}
	local, remote := net.Pipe()
	select {
	case ln.ch <- remote:
		return local, nil
	case <-ln.closed:
		local.Close()
		return nil, errors.New("memNet: listener closed")
	}
}

// TestRoundTripSteadyStateAllocs is the end-to-end allocation gate for
// the pooled-buffer message pipeline: one full MSG-Dispatcher exchange
// over httpx — client POST, CxThread parse+rewrite, queued pooled
// render, WsThread delivery to an RPC echo service, synchronous-answer
// bridge, anonymous-reply hand-back — measured bytes-in to bytes-out.
//
// The bound it enforces is the tentpole claim, ratcheted four times:
// zero GC-owned message-body allocations (PR 3), zero httpx-layer head
// allocations (PR 4 — heads parse in place inside each message's pooled
// buffer, so no header maps, no per-line strings, no release closures),
// zero per-request message-struct allocations (PR 5 — the Exchange API
// reuses one Request per server connection and one Response per client
// connection, handlers reply on the exchange instead of building
// Response structs, and the dispatcher's verdict channel is gone), and
// zero per-exchange timer/rendezvous allocations (PR 7: wait timers,
// waiter slots, and CxThread admission closures are pooled; client
// connection deadlines are armed lazily; the echo response splices the
// parsed request's children instead of rebuilding a Call), and zero
// parse allocations on the forward legs (PR 9: canonical traffic routes
// through the wsa skim scanner — spans, no trees — in both the CxThread
// and the WsThread bridge, which retired the per-exchange parse arenas).
// What remains is budgeted by maxAllocs below — the detached MessageID,
// the bridge's fresh reply ID, channel ops — and what may not reappear
// is the ~5 KiB of body-sized buffers the seed path allocated per
// message, the per-head cluster (~10 allocations per HTTP hop), the
// per-message struct cluster (~6 structs per exchange), the
// timer/closure cluster (~8 allocations per exchange across
// SetDeadline, NewTimer, and func literals), or the parse-arena cluster
// (~6 allocations per exchange across the two routed parses) — maxBytes
// is set under one envelope-per-hop of regression and maxAllocs under
// one cluster of any kind. The fallback sub-case runs the same exchange
// with an envelope the skim declines and pins its count, so the parse
// front end cannot grow either.
func TestRoundTripSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool caching is randomized under the race detector")
	}
	for _, tc := range []struct {
		name string
		// foreign adds a non-WS-Addressing header block, which the skim
		// declines: the CxThread leg then parses and renders through the
		// general serializer (the echo's answer still skims in the bridge).
		foreign   bool
		maxAllocs float64
		maxBytes  uint64
	}{
		// Measured ~5 allocs / ~1.3 KiB on linux/amd64 go1.24; headroom
		// for GC-emptied pools. A parse-arena regression adds ~1.8 KiB.
		{name: "canonical", maxAllocs: 7, maxBytes: 2000},
		// The parse fallback, pinned at the 19 allocs / ~3.5 KiB it
		// measured when the skim and parse legs were still separate code:
		// the shared routing view may not add allocations to the parse
		// path.
		{name: "fallback", foreign: true, maxAllocs: 19, maxBytes: 3700},
	} {
		t.Run(tc.name, func(t *testing.T) {
			roundTrip, raw := newExchangeRig(t, tc.foreign)
			var sk wsa.Skim
			if wsa.SkimEnvelope(raw, &sk) == tc.foreign {
				t.Fatalf("skim accepted = %v, want %v", tc.foreign, !tc.foreign)
			}
			// Warm up connections, skeleton caches, pools, and the
			// WsThread destination binding.
			for i := 0; i < 25; i++ {
				roundTrip()
			}

			allocs := testing.AllocsPerRun(100, roundTrip)
			if allocs > tc.maxAllocs {
				t.Errorf("round trip allocated %.1f times per op, want <= %.1f", allocs, tc.maxAllocs)
			}

			// Bytes per op via the monotonic allocation counter (TotalAlloc
			// is unaffected by GC), over a fresh run of exchanges.
			const n = 100
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				roundTrip()
			}
			runtime.ReadMemStats(&after)
			bytesPerOp := (after.TotalAlloc - before.TotalAlloc) / n
			t.Logf("steady state: %.1f allocs/op, %d B/op (envelope %d B)", allocs, bytesPerOp, len(raw))
			if bytesPerOp > tc.maxBytes {
				t.Errorf("round trip allocated %d B/op, want <= %d (message bodies back on the GC heap?)", bytesPerOp, tc.maxBytes)
			}

			// The pooled buffers this exchange drew must all have been
			// released: with the lifecycle checker on (TestMain),
			// PoolLive drifting upward across exchanges means a leak on
			// the hot path.
			live0 := settledPoolLive()
			for i := 0; i < 50; i++ {
				roundTrip()
			}
			waitFor(t, func() bool { return xmlsoap.PoolLive() <= live0 })
		})
	}
}

// settledPoolLive samples PoolLive once the stack has gone idle. Right
// after an exchange returns, connection goroutines are still swapping
// buffers, and a sample can land between a release and the next
// acquire — a baseline one below the idle level, which no later reading
// can get back under. The count is taken once three readings a
// millisecond apart agree.
func settledPoolLive() int64 {
	live, same := xmlsoap.PoolLive(), 0
	for i := 0; i < 1000 && same < 2; i++ {
		time.Sleep(time.Millisecond)
		if cur := xmlsoap.PoolLive(); cur == live {
			same++
		} else {
			live, same = cur, 0
		}
	}
	return live
}

// newExchangeRig deploys the gate's stack over in-memory pipes — client →
// MSG-Dispatcher → RPC echo, answered through the bridge to an anonymous
// caller — and returns one full exchange as a closure plus the envelope
// it posts. With foreign, the envelope carries a header block the skim
// declines. The dispatcher deletes the pending entry on every reply, so
// the MessageID can repeat across sequential exchanges.
func newExchangeRig(tb testing.TB, foreign bool) (roundTrip func(), raw []byte) {
	nets := memNet{}
	nets["echo:80"] = newMemListener()
	nets["wsd:9100"] = newMemListener()

	srvEcho := httpx.NewServer(echoservice.NewRPC(nil, 0), httpx.ServerConfig{})
	srvEcho.Start(nets["echo:80"])
	tb.Cleanup(func() { srvEcho.Close() })

	reg := registry.New(registry.PolicyFirst, nil)
	reg.Register("echo-rpc", "http://echo:80/")
	disp := New(reg, httpx.NewClient(nets, httpx.ClientConfig{}), Config{
		ReturnAddress: "http://wsd:9100/msg",
		AnonymousWait: 20 * time.Second,
	})
	if err := disp.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(disp.Stop)
	srvDisp := httpx.NewServer(disp, httpx.ServerConfig{})
	srvDisp.Start(nets["wsd:9100"])
	tb.Cleanup(func() { srvDisp.Close() })

	cli := httpx.NewClient(nets, httpx.ClientConfig{})
	tb.Cleanup(cli.Close)

	// One fully addressed RPC-over-messaging request, rendered once.
	env := soap.RPCRequest(soap.V11, echoservice.EchoNS, echoservice.EchoOp,
		soap.Param{Name: "message", Value: "steady"})
	if foreign {
		env.AddHeader(xmlsoap.NewText("urn:custom", "Trace", "tid-7"))
	}
	(&wsa.Headers{
		To:        LogicalScheme + "echo-rpc",
		Action:    echoservice.EchoNS + ":" + echoservice.EchoOp,
		MessageID: "urn:uuid:00000000-0000-4000-8000-00000000a110c",
		ReplyTo:   &wsa.EPR{Address: wsa.Anonymous},
	}).Apply(env)
	raw, err := env.Marshal()
	if err != nil {
		tb.Fatal(err)
	}

	// One request, reused for every exchange: Do never mutates it, and
	// connection-scoped reuse is exactly what the Exchange API is for.
	req := httpx.NewRequest("POST", "/msg", raw)
	req.Header.Set("Content-Type", soap.V11.ContentType())
	return func() {
		resp, err := cli.Do("wsd:9100", req)
		if err != nil {
			tb.Fatal(err)
		}
		if resp.Status != httpx.StatusOK || len(resp.Body) == 0 {
			tb.Fatalf("round trip: HTTP %d body=%q", resp.Status, resp.Body)
		}
		resp.Release()
	}, raw
}

// BenchmarkDispatchExchange reports the same full exchange the gate
// above fences, for CHANGES.md bookkeeping: client POST → CxThread →
// WsThread → RPC echo → bridge → anonymous reply, over in-memory pipes.
func BenchmarkDispatchExchange(b *testing.B) {
	exchange, _ := newExchangeRig(b, false)
	for i := 0; i < 25; i++ {
		exchange()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exchange()
	}
}
