package msgdisp

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// countingConn / countingDialer instrument the dispatcher's delivery
// client: every Write on a delivery connection is counted, so the tests
// below can pin "one vectored write per burst" (one syscall on a real
// socket) rather than inferring it from timing.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

type countingDialer struct {
	inner  memNet
	writes atomic.Int64
}

func (d *countingDialer) DialTimeout(addr string, to time.Duration) (net.Conn, error) {
	c, err := d.inner.DialTimeout(addr, to)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, writes: &d.writes}, nil
}

// reply202Server runs an httpx server at ln that acknowledges every
// message and counts them.
func reply202Server(t testing.TB, ln *memListener, served *atomic.Int64) *httpx.Server {
	srv := httpx.NewServer(httpx.HandlerFunc(func(ex *httpx.Exchange) {
		served.Add(1)
		ex.ReplyBytes(httpx.StatusAccepted, nil)
	}), httpx.ServerConfig{})
	srv.Start(ln)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// rawMsg wraps s in a pooled buffer as a queued outbound reply-leg
// message (no SOAP parsing happens on the 202 settle path).
func rawMsg(s string) outbound {
	buf := xmlsoap.GetBuffer()
	buf.B = append(buf.B, s...)
	return outbound{payload: buf, version: soap.V11}
}

func newBatchDispatcher(t testing.TB, dialer httpx.Dialer, cfg Config) *Dispatcher {
	cfg.ReturnAddress = "http://wsd:9100/msg"
	disp := New(registry.New(registry.PolicyFirst, nil), httpx.NewClient(dialer, httpx.ClientConfig{}), cfg)
	if err := disp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disp.Stop)
	return disp
}

// TestBurstSingleTimerRearm pins the burst amortization end to end: a
// pre-queued burst of BatchMax messages leaves the WsThread in ONE
// delivery write and re-arms the HoldOpen timer ONCE, and every pooled
// payload is back in the pool once the burst settles.
func TestBurstSingleTimerRearm(t *testing.T) {
	nets := memNet{"svc:80": newMemListener()}
	var served atomic.Int64
	srv := reply202Server(t, nets["svc:80"], &served)
	dialer := &countingDialer{inner: nets}
	disp := newBatchDispatcher(t, dialer, Config{BatchMax: 4})

	live0 := xmlsoap.PoolLive()
	msgs := []outbound{rawMsg("msg-0"), rawMsg("msg-1"), rawMsg("msg-2"), rawMsg("msg-3")}
	// enqueueBatch queues the whole burst before the WsThread spawns, so
	// the first drain pass deterministically sees all of it.
	if n := disp.enqueueBatch(msgs, "http://svc:80/in"); n != 4 {
		t.Fatalf("enqueueBatch admitted %d of 4", n)
	}
	waitFor(t, func() bool { return served.Load() == 4 })
	waitFor(t, func() bool { return disp.RepliesDelivered.Value() == 4 })
	waitFor(t, func() bool { return disp.HoldOpenRearms.Value() == 1 })
	if w := dialer.writes.Load(); w != 1 {
		t.Errorf("burst of 4 took %d delivery writes, want 1", w)
	}
	// Poolcheck: the burst's payload buffers must all be released. The
	// destination server is torn down first so its live connection's
	// reply-coalescing buffer (held for the connection's life, created
	// after live0 was sampled) does not read as a leak.
	srv.Close()
	waitFor(t, func() bool { return xmlsoap.PoolLive() <= live0 })
}

// TestBurstCapBoundary drives one message past BatchMax: the drain
// splits into a full burst plus a single-message pass — two writes, two
// timer re-arms — never an over-cap burst.
func TestBurstCapBoundary(t *testing.T) {
	nets := memNet{"svc:80": newMemListener()}
	var served atomic.Int64
	reply202Server(t, nets["svc:80"], &served)
	dialer := &countingDialer{inner: nets}
	disp := newBatchDispatcher(t, dialer, Config{BatchMax: 4})

	msgs := make([]outbound, 5)
	for i := range msgs {
		msgs[i] = rawMsg(fmt.Sprintf("msg-%d", i))
	}
	if n := disp.enqueueBatch(msgs, "http://svc:80/in"); n != 5 {
		t.Fatalf("enqueueBatch admitted %d of 5", n)
	}
	waitFor(t, func() bool { return disp.RepliesDelivered.Value() == 5 })
	waitFor(t, func() bool { return disp.HoldOpenRearms.Value() == 2 })
	if w := dialer.writes.Load(); w != 2 {
		t.Errorf("5 messages with BatchMax=4 took %d writes, want 2 (4+1)", w)
	}
}

// TestEnqueueBatchPrefixAdmission pins the one-transaction queue
// contract: a burst larger than the queue's remaining room admits its
// FIFO prefix and leaves the tail with the caller.
func TestEnqueueBatchPrefixAdmission(t *testing.T) {
	disp := newBatchDispatcher(t, memNet{}, Config{QueueCap: 3}) // no listeners: deliveries fail
	live0 := xmlsoap.PoolLive()
	msgs := make([]outbound, 5)
	for i := range msgs {
		msgs[i] = rawMsg(fmt.Sprintf("msg-%d", i))
	}
	n := disp.enqueueBatch(msgs, "http://nowhere:80/in")
	if n != 3 {
		t.Fatalf("enqueueBatch admitted %d of 5 with QueueCap 3, want 3", n)
	}
	for _, m := range msgs[n:] { // caller keeps the tail
		xmlsoap.PutBuffer(m.payload)
	}
	waitFor(t, func() bool { return disp.DeliveryFailures.Value() == 3 })
	waitFor(t, func() bool { return xmlsoap.PoolLive() <= live0 })
}

// TestBatchMidErrorRequeuesFIFO pins error isolation on the burst
// delivery path: when the destination answers part of a pipelined burst
// and drops the connection, the answered prefix is settled and the
// unanswered tail is requeued — and redelivered on a fresh connection in
// the original FIFO order, not dropped and not reordered.
func TestBatchMidErrorRequeuesFIFO(t *testing.T) {
	ln := newMemListener()
	nets := memNet{"svc:80": ln}

	const ack = "HTTP/1.1 202 Accepted\r\nContent-Length: 0\r\n\r\n"
	var mu sync.Mutex
	var conn2Bodies []string
	go func() {
		// First connection: answer two of the burst's five requests,
		// then slam the connection mid-batch.
		c1, err := ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(c1)
		var req httpx.Request
		for i := 0; i < 2; i++ {
			if err := httpx.ReadRequestInto(br, &req); err != nil {
				c1.Close()
				return
			}
			req.Release()
		}
		c1.Write([]byte(ack + ack))
		c1.Close()
		// Second connection: serve the requeued tail, recording arrival
		// order.
		c2, err := ln.Accept()
		if err != nil {
			return
		}
		defer c2.Close()
		br2 := bufio.NewReader(c2)
		for i := 0; i < 3; i++ {
			if err := httpx.ReadRequestInto(br2, &req); err != nil {
				return
			}
			mu.Lock()
			conn2Bodies = append(conn2Bodies, string(req.Body))
			mu.Unlock()
			req.Release()
			if _, err := c2.Write([]byte(ack)); err != nil {
				return
			}
		}
	}()

	disp := newBatchDispatcher(t, nets, Config{DeliveryTimeout: 5 * time.Second})
	live0 := xmlsoap.PoolLive()
	msgs := make([]outbound, 5)
	for i := range msgs {
		msgs[i] = rawMsg(fmt.Sprintf("msg-%d", i))
	}
	if n := disp.enqueueBatch(msgs, "http://svc:80/in"); n != 5 {
		t.Fatalf("enqueueBatch admitted %d of 5", n)
	}
	waitFor(t, func() bool { return disp.RepliesDelivered.Value() == 5 })
	mu.Lock()
	got := append([]string(nil), conn2Bodies...)
	mu.Unlock()
	want := []string{"msg-2", "msg-3", "msg-4"}
	if len(got) != len(want) {
		t.Fatalf("second connection served %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("requeued tail out of order: got %q, want %q", got, want)
		}
	}
	if disp.DeliveryFailures.Value() != 0 {
		t.Errorf("DeliveryFailures = %d; the requeued tail must not count as failed", disp.DeliveryFailures.Value())
	}
	waitFor(t, func() bool { return xmlsoap.PoolLive() <= live0 })
}

// BenchmarkDispatchBatch measures the cross-message batching tentpole on
// the full dispatcher path: one client burst of 16 same-destination
// messages — pipelined into the dispatcher in one vectored write,
// acknowledged in one coalesced 202 flush, forwarded to the RPC echo
// service in WsThread bursts, their synchronous answers bridged and
// batch-admitted to the reply queue, and the replies burst-delivered to
// the client's message endpoint. Compare ns/msg against
// BenchmarkDispatchExchange's ns/op (one message per op over the same
// rig).
func BenchmarkDispatchBatch(b *testing.B) {
	const burst = 16
	nets := memNet{}
	nets["echo:80"] = newMemListener()
	nets["wsd:9100"] = newMemListener()
	nets["client:90"] = newMemListener()

	srvEcho := httpx.NewServer(echoservice.NewRPC(nil, 0), httpx.ServerConfig{})
	srvEcho.Start(nets["echo:80"])
	defer srvEcho.Close()

	reg := registry.New(registry.PolicyFirst, nil)
	reg.Register("echo-rpc", "http://echo:80/")
	disp := New(reg, httpx.NewClient(nets, httpx.ClientConfig{}), Config{
		ReturnAddress: "http://wsd:9100/msg",
	})
	if err := disp.Start(); err != nil {
		b.Fatal(err)
	}
	defer disp.Stop()
	srvDisp := httpx.NewServer(disp, httpx.ServerConfig{})
	srvDisp.Start(nets["wsd:9100"])
	defer srvDisp.Close()

	// The client's reply endpoint: counts delivered replies so each
	// iteration can wait for its burst to fully settle.
	notify := make(chan struct{}, 1024)
	srvReply := httpx.NewServer(httpx.HandlerFunc(func(ex *httpx.Exchange) {
		ex.ReplyBytes(httpx.StatusAccepted, nil)
		notify <- struct{}{}
	}), httpx.ServerConfig{})
	srvReply.Start(nets["client:90"])
	defer srvReply.Close()

	// 16 distinct messages (the pending-reply table is keyed by
	// MessageID), each expecting its reply at the client endpoint —
	// non-anonymous, so the burst is not serialized by blocked RPC waits.
	reqs := make([]*httpx.Request, burst)
	for i := range reqs {
		env := soap.New(soap.V11).SetBody(xmlsoap.New(echoservice.EchoNS, echoservice.EchoOp).Add(xmlsoap.NewText("", "message", "steady")))
		(&wsa.Headers{
			To:        LogicalScheme + "echo-rpc",
			Action:    echoservice.EchoNS + ":" + echoservice.EchoOp,
			MessageID: fmt.Sprintf("urn:uuid:00000000-0000-4000-8000-0000000000%02x", i),
			ReplyTo:   &wsa.EPR{Address: "http://client:90/msg"},
		}).Apply(env)
		raw, err := env.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = httpx.NewRequest("POST", "/msg", raw)
		reqs[i].Header.Set("Content-Type", soap.V11.ContentType())
	}

	cli := httpx.NewClient(nets, httpx.ClientConfig{})
	defer cli.Close()
	stream := cli.Stream("wsd:9100")
	defer stream.Close()
	iter := func() {
		done, err := stream.DoBatch(reqs, 10*time.Second, func(i int, resp *httpx.Response) {
			if resp.Status != httpx.StatusAccepted {
				b.Fatalf("message %d: HTTP %d", i, resp.Status)
			}
		})
		if err != nil || done != burst {
			b.Fatalf("DoBatch = (%d, %v)", done, err)
		}
		for k := 0; k < burst; k++ {
			<-notify
		}
	}
	for i := 0; i < 5; i++ {
		iter()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/msg")
}
