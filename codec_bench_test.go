// Wire-codec micro-benchmarks: the per-message marshal/parse cost every
// hop of the dispatch path pays, isolated from the simulated network.
// Run with:
//
//	go test -bench 'Marshal|Parse|RoundTrip' -benchmem
//
// The allocation budgets these benchmarks exercise are enforced by
// regression tests (internal/xmlsoap TestAppendToZeroAlloc,
// internal/wsa TestSkeletonZeroAlloc), so a future PR cannot silently
// regress them.
package repro_test

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/httpx/refhead"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
	"repro/internal/xmlsoap/refparser"
)

// benchEnvelope is a fully addressed echo message: the exact shape the
// MSG-Dispatcher renders per forwarded message.
func benchEnvelope() *soap.Envelope {
	env := soap.New(soap.V11).SetBody(xmlsoap.NewText(echoservice.EchoNS, "echo", "payload"))
	(&wsa.Headers{
		To:        "logical:echo",
		Action:    echoservice.EchoNS + ":echo",
		MessageID: "urn:uuid:00000000-0000-4000-8000-000000000000",
		ReplyTo:   &wsa.EPR{Address: "http://client:90/msg"},
	}).Apply(env)
	return env
}

// BenchmarkMarshal measures envelope serialization three ways: the
// skeleton-cached streaming path the dispatchers use (steady state:
// 0 allocs/op), the general streaming path, and the compat Marshal that
// still materializes a fresh slice.
func BenchmarkMarshal(b *testing.B) {
	env := benchEnvelope()
	b.Run("skeleton-append", func(b *testing.B) {
		dst := make([]byte, 0, 4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := wsa.AppendEnvelope(dst, env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("general-append", func(b *testing.B) {
		dst := make([]byte, 0, 4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := env.AppendTo(dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compat-marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := env.Marshal(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRPCCodec measures one rpc-echo call's envelopes both ways:
// the element tree the RPC endpoints used to build and parse (render:
// build the tree, then wsa.AppendEnvelope; decode: soap.Parse, then
// ParseRPCResponse) against the byte codec (soap.AppendRPC and
// soap.DecodeRPCResponse), on a 16-byte message.
func BenchmarkRPCCodec(b *testing.B) {
	params := []soap.Param{{Name: "message", Value: "m-0001-000042-ab"}}
	resp, err := soap.AppendRPCResponse(nil, soap.V11, echoservice.EchoNS, echoservice.EchoOp, params...)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 0, 4096)
	results := make([]soap.Param, 0, 4)
	b.Run("render/tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wrapper := xmlsoap.New(echoservice.EchoNS, echoservice.EchoOp)
			for _, p := range params {
				wrapper.Add(xmlsoap.NewText("", p.Name, p.Value))
			}
			if _, err := wsa.AppendEnvelope(dst, soap.New(soap.V11).SetBody(wrapper)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("render/bytes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := soap.AppendRPC(dst, soap.V11, echoservice.EchoNS, echoservice.EchoOp, params...); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			env, err := soap.Parse(resp)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := soap.ParseRPCResponse(env, echoservice.EchoOp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/bytes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if results, err = soap.DecodeRPCResponse(resp, echoservice.EchoOp, results); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParse measures the receive half of the codec: the full
// soap.Parse path the dispatchers pay per message, the xmlsoap tree
// parse alone (pooled and dedicated-decoder), and the frozen
// encoding/xml-based refparser as the seed baseline.
func BenchmarkParse(b *testing.B) {
	raw, err := wsa.MarshalEnvelope(benchEnvelope())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("envelope", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(raw)), "envelope-bytes")
		for i := 0; i < b.N; i++ {
			if _, err := soap.Parse(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree-pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := xmlsoap.Parse(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tree-decoder", func(b *testing.B) {
		dec := xmlsoap.NewDecoder()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dec.Parse(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refparser-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := refparser.Parse(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRoundTrip measures one full hop as a dispatcher sees it:
// parse the incoming envelope, extract and rewrite the WS-Addressing
// headers, and re-serialize for the next hop. Two variants:
//
//   - clone-apply is the pre-PR-3 sequence (deep header clone, Apply
//     materializing fresh header elements, skeleton render);
//   - fused-rewrite is what msgdisp now runs: a shallow Headers copy
//     with shared constant EPRs spliced straight into the skeleton via
//     wsa.AppendRewritten, no header elements built at all.
func BenchmarkRoundTrip(b *testing.B) {
	raw, err := wsa.MarshalEnvelope(benchEnvelope())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("clone-apply", func(b *testing.B) {
		dst := make([]byte, 0, 4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			env, err := soap.Parse(raw)
			if err != nil {
				b.Fatal(err)
			}
			h, err := wsa.FromEnvelope(env)
			if err != nil {
				b.Fatal(err)
			}
			rewritten := h.Clone()
			rewritten.To = "http://ws1:81/msg"
			rewritten.ReplyTo = &wsa.EPR{Address: "http://wsd:9100/msg"}
			rewritten.Apply(env)
			if _, err := wsa.AppendEnvelope(dst, env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fused-rewrite", func(b *testing.B) {
		dst := make([]byte, 0, 4096)
		selfEPR := &wsa.EPR{Address: "http://wsd:9100/msg"}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			env, err := soap.Parse(raw)
			if err != nil {
				b.Fatal(err)
			}
			h, err := wsa.FromEnvelope(env)
			if err != nil {
				b.Fatal(err)
			}
			rewritten := *h
			rewritten.To = "http://ws1:81/msg"
			rewritten.ReplyTo = selfEPR
			if _, err := wsa.AppendRewritten(dst, env, &rewritten); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReadHead measures one HTTP request read — head parse plus
// body framing — end to end over an in-memory reader: the unit every
// dispatch hop pays on both sides of a connection. "pooled" is the
// in-place parser reading into a pooled head+body buffer through a
// reused struct, as the server and client do (steady state: no
// allocation); "refhead" is the frozen map-based seed parser kept as the
// FuzzHead oracle. Run without the poolcheck tag for representative
// numbers — poison scans dominate otherwise.
func BenchmarkReadHead(b *testing.B) {
	raw := []byte("POST /msg HTTP/1.1\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: 7\r\nHost: wsd:9100\r\n\r\n<soap/>")
	src := bytes.NewReader(raw)
	br := bufio.NewReader(src)
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		var req httpx.Request
		for i := 0; i < b.N; i++ {
			src.Reset(raw)
			br.Reset(src)
			if err := httpx.ReadRequestInto(br, &req); err != nil {
				b.Fatal(err)
			}
			req.Release()
		}
	})
	b.Run("refhead", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.Reset(raw)
			br.Reset(src)
			if _, err := refhead.ReadRequest(br); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchListener is a one-shot in-memory net.Listener fed net.Pipe conns
// by benchDialer — the same no-sockets rig the msgdisp allocation gate
// uses, duplicated here because these root benchmarks run without the
// poolcheck TestMain (poison scans would dominate sub-µs paths).
type benchListener struct {
	ch     chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newBenchListener() *benchListener {
	return &benchListener{ch: make(chan net.Conn, 4), closed: make(chan struct{})}
}

func (l *benchListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.closed:
		return nil, errors.New("benchListener: closed")
	}
}

func (l *benchListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *benchListener) Addr() net.Addr { return benchAddr("mem") }

type benchAddr string

func (a benchAddr) Network() string { return "mem" }
func (a benchAddr) String() string  { return string(a) }

type benchDialer map[string]*benchListener

func (d benchDialer) DialTimeout(addr string, _ time.Duration) (net.Conn, error) {
	ln, ok := d[addr]
	if !ok {
		return nil, errors.New("benchDialer: no listener at " + addr)
	}
	local, remote := net.Pipe()
	ln.ch <- remote
	return local, nil
}

// benchEchoHandler is the minimal Exchange handler: echo the body, no
// parsing — so the benchmarks below isolate the HTTP layer itself.
func benchEchoHandler(ex *httpx.Exchange) {
	ex.Header().Set("Content-Type", ex.Req.Header.Get("Content-Type"))
	ex.ReplyBytes(httpx.StatusOK, ex.Req.Body)
}

// BenchmarkServeConnPipelined measures the server side of the Exchange
// redesign in isolation: one keep-alive connection carrying batches of
// back-to-back (pipelined) requests, served by serveConn's reused
// Exchange with single-write replies. The per-op unit is ONE request.
// Steady state allocates nothing per request in the httpx layer; what
// remains is net.Pipe deadline machinery.
func BenchmarkServeConnPipelined(b *testing.B) {
	ln := newBenchListener()
	srv := httpx.NewServer(httpx.HandlerFunc(benchEchoHandler), httpx.ServerConfig{})
	srv.Start(ln)
	defer srv.Close()

	local, remote := net.Pipe()
	ln.ch <- remote
	defer local.Close()

	const batch = 16
	const body = "<soap:Envelope>ping</soap:Envelope>"
	blob := []byte(strings.Repeat("POST /echo HTTP/1.1\r\nContent-Length: "+strconv.Itoa(len(body))+
		"\r\nContent-Type: text/xml; charset=utf-8\r\n\r\n"+body, batch))
	br := bufio.NewReader(local)
	writeErr := make(chan error, 1)

	var resp httpx.Response // the bench side reuses its struct too
	runBatch := func() {
		go func() {
			_, err := local.Write(blob)
			writeErr <- err
		}()
		for i := 0; i < batch; i++ {
			if err := httpx.ReadResponseInto(br, &resp); err != nil {
				b.Fatal(err)
			}
			if resp.Status != httpx.StatusOK {
				b.Fatalf("HTTP %d", resp.Status)
			}
			resp.Release()
		}
		if err := <-writeErr; err != nil {
			b.Fatal(err)
		}
	}
	runBatch() // warm pools and the connection's Exchange
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		runBatch()
	}
}

// BenchmarkClientStream measures the client side: one-request
// Stream.DoBatch bursts over one pinned connection with the
// per-connection Response reuse, vs Client.Do taking the idle-pool path
// and lending the response out on every exchange.
func BenchmarkClientStream(b *testing.B) {
	nets := benchDialer{"echo:80": newBenchListener()}
	srv := httpx.NewServer(httpx.HandlerFunc(benchEchoHandler), httpx.ServerConfig{})
	srv.Start(nets["echo:80"])
	defer srv.Close()

	req := httpx.NewRequest("POST", "/echo", []byte("<soap:Envelope>ping</soap:Envelope>"))
	req.Header.Set("Content-Type", "text/xml; charset=utf-8")

	b.Run("stream", func(b *testing.B) {
		cli := httpx.NewClient(nets, httpx.ClientConfig{})
		defer cli.Close()
		s := cli.Stream("echo:80")
		defer s.Close()
		reqs := []*httpx.Request{req}
		exchange := func() {
			if _, err := s.DoBatch(reqs, httpx.DefaultRequestTimeout, func(int, *httpx.Response) {}); err != nil {
				b.Fatal(err)
			}
		}
		exchange()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exchange()
		}
	})
	b.Run("do", func(b *testing.B) {
		cli := httpx.NewClient(nets, httpx.ClientConfig{})
		defer cli.Close()
		exchange := func() {
			resp, err := cli.Do("echo:80", req)
			if err != nil {
				b.Fatal(err)
			}
			resp.Release()
		}
		exchange()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			exchange()
		}
	})
}
