package echoservice

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// rig wires an RPC echo service, an async echo service, and a client
// endpoint over the simulated network.
type rig struct {
	clk     *clock.Virtual
	nw      *netsim.Network
	rpc     *RPC
	async   *Async
	cliHost *netsim.Host
	client  *httpx.Client
	// inbox receives messages POSTed to the client's own endpoint.
	inbox chan *soap.Envelope
}

func newRig(t *testing.T, clientFirewalled bool) *rig {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	t.Cleanup(clk.Stop)
	nw := netsim.New(clk, 5)

	ws := nw.AddHost("ws", netsim.ProfileLAN())
	var cliOpts []netsim.HostOption
	if clientFirewalled {
		cliOpts = append(cliOpts, netsim.WithFirewall(netsim.OutboundOnly()))
	}
	cli := nw.AddHost("cli", netsim.ProfileLAN(), cliOpts...)

	r := &rig{clk: clk, nw: nw, cliHost: cli, inbox: make(chan *soap.Envelope, 64)}

	// RPC echo on ws:80.
	r.rpc = NewRPC(clk, 0)
	lnRPC, _ := ws.Listen(80)
	srvRPC := httpx.NewServer(r.rpc, httpx.ServerConfig{Clock: clk})
	srvRPC.Start(lnRPC)
	t.Cleanup(func() { srvRPC.Close() })

	// Async echo on ws:81, replying through ws's own client.
	wsClient := httpx.NewClient(ws, httpx.ClientConfig{Clock: clk})
	r.async = NewAsync(clk, wsClient, 0)
	r.async.OwnAddress = "http://ws:81/msg"
	r.async.ReplyTimeout = 2 * time.Second
	lnAsync, _ := ws.Listen(81)
	srvAsync := httpx.NewServer(r.async, httpx.ServerConfig{Clock: clk})
	srvAsync.Start(lnAsync)
	t.Cleanup(func() { srvAsync.Close() })

	// Client's own message endpoint on cli:90.
	lnCli, _ := cli.Listen(90)
	srvCli := httpx.NewServer(httpx.HandlerFunc(func(ex *httpx.Exchange) {
		if env, err := soap.Parse(ex.Req.Body); err == nil {
			r.inbox <- env.Detach()
		}
		ex.ReplyBytes(httpx.StatusAccepted, nil)
	}), httpx.ServerConfig{Clock: clk})
	srvCli.Start(lnCli)
	t.Cleanup(func() { srvCli.Close() })

	r.client = httpx.NewClient(cli, httpx.ClientConfig{Clock: clk, RequestTimeout: 10 * time.Second})
	t.Cleanup(r.client.Close)
	return r
}

func TestRPCEchoRoundTrip(t *testing.T) {
	r := newRig(t, false)
	body, _ := soap.AppendRPC(nil, soap.V11, EchoNS, EchoOp,
		soap.Param{Name: "message", Value: "ping-1"})
	req := httpx.NewRequest("POST", "/", body)
	req.Header.Set("Content-Type", soap.V11.ContentType())
	resp, err := r.client.Do("ws:80", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusOK {
		t.Fatalf("status = %d body=%s", resp.Status, resp.Body)
	}
	env, err := soap.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	results, err := soap.ParseRPCResponse(env, EchoOp)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Value != "ping-1" {
		t.Fatalf("results = %+v", results)
	}
	if r.rpc.Handled.Value() != 1 {
		t.Fatalf("Handled = %d", r.rpc.Handled.Value())
	}
}

func TestRPCEchoRejectsGarbage(t *testing.T) {
	r := newRig(t, false)
	req := httpx.NewRequest("POST", "/", []byte("this is not xml"))
	resp, err := r.client.Do("ws:80", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusBadRequest {
		t.Fatalf("status = %d", resp.Status)
	}
	if r.rpc.Rejected.Value() != 1 {
		t.Fatalf("Rejected = %d", r.rpc.Rejected.Value())
	}
}

func TestRPCEchoServiceTimeCharged(t *testing.T) {
	r := newRig(t, false)
	r.rpc.ServiceTime = 300 * time.Millisecond
	body, _ := soap.AppendRPC(nil, soap.V11, EchoNS, EchoOp,
		soap.Param{Name: "message", Value: "x"})
	start := r.clk.Now()
	if _, err := r.client.Do("ws:80", httpx.NewRequest("POST", "/", body)); err != nil {
		t.Fatal(err)
	}
	if got := r.clk.Since(start); got < 300*time.Millisecond {
		t.Fatalf("call took %v, want >= service time", got)
	}
}

func sendAsync(t *testing.T, r *rig, replyTo string) {
	t.Helper()
	env := soap.New(soap.V11).SetBody(xmlsoap.NewText(EchoNS, "echo", "async-ping"))
	h := &wsa.Headers{
		To:        "http://ws:81/msg",
		Action:    EchoNS + ":echo",
		MessageID: wsa.NewMessageID(),
	}
	if replyTo != "" {
		h.ReplyTo = &wsa.EPR{Address: replyTo}
	}
	h.Apply(env)
	raw, _ := env.Marshal()
	resp, err := r.client.Do("ws:81", httpx.NewRequest("POST", "/msg", raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusAccepted {
		t.Fatalf("status = %d", resp.Status)
	}
}

func TestAsyncEchoRepliesToReachableClient(t *testing.T) {
	r := newRig(t, false)
	sendAsync(t, r, "http://cli:90/msg")
	select {
	case env := <-r.inbox:
		h, err := wsa.FromEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		if h.RelatesTo == "" {
			t.Fatal("reply missing RelatesTo")
		}
		if env.BodyElement().Text != "async-ping" {
			t.Fatalf("reply body = %s", env.BodyElement())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no reply received")
	}
	waitFor(t, func() bool { return r.async.RepliesSent.Value() == 1 })
}

func TestAsyncEchoBlockedByFirewall(t *testing.T) {
	r := newRig(t, true) // client firewalled
	sendAsync(t, r, "http://cli:90/msg")
	// The send is accepted, but the reply leg must fail.
	waitFor(t, func() bool { return r.async.ReplyFailures.Value() == 1 })
	if r.async.Accepted.Value() != 1 {
		t.Fatalf("Accepted = %d", r.async.Accepted.Value())
	}
	select {
	case <-r.inbox:
		t.Fatal("reply crossed the firewall")
	default:
	}
}

func TestAsyncEchoNoReplyToIsFireAndForget(t *testing.T) {
	r := newRig(t, false)
	sendAsync(t, r, "")
	r.clk.Sleep(3 * time.Second)
	if r.async.RepliesSent.Value() != 0 || r.async.ReplyFailures.Value() != 0 {
		t.Fatalf("sent=%d failed=%d, want no reply attempts",
			r.async.RepliesSent.Value(), r.async.ReplyFailures.Value())
	}
}

func TestAsyncEchoNoneAddressSkipsReply(t *testing.T) {
	r := newRig(t, false)
	sendAsync(t, r, wsa.None)
	r.clk.Sleep(3 * time.Second)
	if r.async.RepliesSent.Value() != 0 {
		t.Fatal("reply sent to the None address")
	}
}

func TestAsyncEchoRejectsMissingAddressing(t *testing.T) {
	r := newRig(t, false)
	env := soap.New(soap.V11).SetBody(xmlsoap.New(EchoNS, "echo"))
	raw, _ := env.Marshal()
	resp, err := r.client.Do("ws:81", httpx.NewRequest("POST", "/msg", raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusBadRequest {
		t.Fatalf("status = %d", resp.Status)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached")
}
