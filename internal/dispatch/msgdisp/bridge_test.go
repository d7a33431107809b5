package msgdisp

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// bridgeRig wires the dispatcher to an RPC echo service (not a messaging
// one), exercising the messaging→RPC translation and the anonymous-reply
// connection hold.
type bridgeRig struct {
	clk    *clock.Virtual
	disp   *Dispatcher
	client *httpx.Client
	echo   *echoservice.RPC
	inbox  chan *soap.Envelope
}

func newBridgeRig(t *testing.T, serviceTime time.Duration, anonWait time.Duration) *bridgeRig {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	t.Cleanup(clk.Stop)
	nw := netsim.New(clk, 61)
	wsd := nw.AddHost("wsd", netsim.ProfileLAN())
	ws := nw.AddHost("ws", netsim.ProfileLAN())
	cli := nw.AddHost("cli", netsim.ProfileLAN())

	r := &bridgeRig{clk: clk, inbox: make(chan *soap.Envelope, 16)}

	// RPC echo (answers on the same connection) behind the dispatcher.
	r.echo = echoservice.NewRPC(clk, serviceTime)
	ln, _ := ws.Listen(80)
	srvWS := httpx.NewServer(r.echo, httpx.ServerConfig{Clock: clk})
	srvWS.Start(ln)
	t.Cleanup(func() { srvWS.Close() })

	reg := registry.New(registry.PolicyFirst, clk)
	reg.Register("echo-rpc", "http://ws:80/")
	dispClient := httpx.NewClient(wsd, httpx.ClientConfig{Clock: clk})
	r.disp = New(reg, dispClient, Config{
		Clock:           clk,
		ReturnAddress:   "http://wsd:9100/msg",
		AnonymousWait:   anonWait,
		DeliveryTimeout: 5 * time.Second,
	})
	if err := r.disp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.disp.Stop)
	lnD, _ := wsd.Listen(9100)
	srvD := httpx.NewServer(r.disp, httpx.ServerConfig{Clock: clk})
	srvD.Start(lnD)
	t.Cleanup(func() { srvD.Close() })

	// Client's own endpoint for bridged replies.
	lnC, _ := cli.Listen(90)
	srvC := httpx.NewServer(httpx.HandlerFunc(func(ex *httpx.Exchange) {
		if env, err := soap.Parse(ex.Req.Body); err == nil {
			r.inbox <- env.Detach()
		}
		ex.ReplyBytes(httpx.StatusAccepted, nil)
	}), httpx.ServerConfig{Clock: clk})
	srvC.Start(lnC)
	t.Cleanup(func() { srvC.Close() })

	r.client = httpx.NewClient(cli, httpx.ClientConfig{Clock: clk, RequestTimeout: 60 * time.Second})
	t.Cleanup(r.client.Close)
	return r
}

// postRPCBody sends an RPC-style body as a WS-Addressing message with the
// given ReplyTo and returns the HTTP response.
func (r *bridgeRig) postRPCBody(t *testing.T, replyTo string) (*httpx.Response, string) {
	t.Helper()
	env := soap.New(soap.V11).SetBody(xmlsoap.New(echoservice.EchoNS, echoservice.EchoOp).Add(xmlsoap.NewText("", "message", "bridged")))
	h := &wsa.Headers{
		To:        LogicalScheme + "echo-rpc",
		Action:    echoservice.EchoNS + ":" + echoservice.EchoOp,
		MessageID: wsa.NewMessageID(),
		ReplyTo:   &wsa.EPR{Address: replyTo},
	}
	h.Apply(env)
	raw, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	req := httpx.NewRequest("POST", "/msg", raw)
	req.Header.Set("Content-Type", soap.V11.ContentType())
	resp, err := r.client.Do("wsd:9100", req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, h.MessageID
}

func TestRPCBridgeDeliversToEndpoint(t *testing.T) {
	r := newBridgeRig(t, time.Millisecond, 10*time.Second)
	resp, msgID := r.postRPCBody(t, "http://cli:90/msg")
	if resp.Status != httpx.StatusAccepted {
		t.Fatalf("status = %d", resp.Status)
	}
	select {
	case reply := <-r.inbox:
		h, err := wsa.FromEnvelope(reply)
		if err != nil {
			t.Fatal(err)
		}
		if h.RelatesTo != msgID {
			t.Fatalf("RelatesTo = %q, want %q", h.RelatesTo, msgID)
		}
		results, err := soap.ParseRPCResponse(reply, echoservice.EchoOp)
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Value != "bridged" {
			t.Fatalf("bridged result = %+v", results)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("bridged reply never arrived")
	}
}

func TestAnonymousReplyHoldsConnection(t *testing.T) {
	r := newBridgeRig(t, 200*time.Millisecond, 10*time.Second)
	resp, msgID := r.postRPCBody(t, wsa.Anonymous)
	// The dispatcher held the connection and answered with the bridged
	// RPC result on it.
	if resp.Status != httpx.StatusOK {
		t.Fatalf("status = %d body=%s", resp.Status, resp.Body)
	}
	env, err := soap.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The synthesized bridge reply must carry WS-Addressing headers on
	// the envelope itself — the RPC-style caller correlates the
	// connection-bound answer by RelatesTo.
	h, err := wsa.FromEnvelope(env)
	if err != nil {
		t.Fatalf("bridged reply lost its addressing headers: %v", err)
	}
	if h.RelatesTo != msgID {
		t.Fatalf("RelatesTo = %q, want %q", h.RelatesTo, msgID)
	}
	results, err := soap.ParseRPCResponse(env, echoservice.EchoOp)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Value != "bridged" {
		t.Fatalf("results = %+v", results)
	}
}

func TestAnonymousReplyTimesOutWith504(t *testing.T) {
	r := newBridgeRig(t, 30*time.Second, 2*time.Second) // service slower than window
	resp, _ := r.postRPCBody(t, wsa.Anonymous)
	if resp.Status != httpx.StatusGatewayTimeout {
		t.Fatalf("status = %d", resp.Status)
	}
	// The late reply must not resurrect state.
	r.clk.Sleep(40 * time.Second)
	if n := r.disp.PendingLen(); n != 0 {
		t.Fatalf("pending = %d after timeout", n)
	}
}

func TestBridgeWithoutReplyToDiscardsRPCResponse(t *testing.T) {
	r := newBridgeRig(t, time.Millisecond, 10*time.Second)
	env := soap.New(soap.V11).SetBody(xmlsoap.New(echoservice.EchoNS, echoservice.EchoOp).Add(xmlsoap.NewText("", "message", "noreply")))
	(&wsa.Headers{
		To:        LogicalScheme + "echo-rpc",
		MessageID: wsa.NewMessageID(),
	}).Apply(env)
	raw, _ := env.Marshal()
	req := httpx.NewRequest("POST", "/msg", raw)
	resp, err := r.client.Do("wsd:9100", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusAccepted {
		t.Fatalf("status = %d", resp.Status)
	}
	waitFor(t, func() bool { return r.disp.ForwardedToWS.Value() == 1 })
	// The service answered 200 with a body, but with no pending state
	// the dispatcher discards it instead of looping it.
	r.clk.Sleep(2 * time.Second)
	if r.disp.Accepted.Value() != 1 {
		t.Fatalf("Accepted = %d, want only the original send", r.disp.Accepted.Value())
	}
	select {
	case <-r.inbox:
		t.Fatal("discarded response reached the client")
	default:
	}
}

func TestBridgedEchoBody(t *testing.T) {
	// A messaging echo that already stamps full WSA reply headers is
	// routed as-is (the "already addressed" bridge path).
	clk := clock.NewVirtual(time.Unix(0, 0))
	defer clk.Stop()
	nw := netsim.New(clk, 62)
	wsd := nw.AddHost("wsd", netsim.ProfileLAN())
	ws := nw.AddHost("ws", netsim.ProfileLAN())
	cli := nw.AddHost("cli", netsim.ProfileLAN())

	// A service that answers the delivery POST *synchronously* with a
	// fully addressed reply envelope (some stacks do this instead of
	// opening a new connection).
	ln, _ := ws.Listen(81)
	srvWS := httpx.NewServer(httpx.HandlerFunc(func(ex *httpx.Exchange) {
		in, err := soap.Parse(ex.Req.Body)
		if err != nil {
			ex.ReplyBytes(httpx.StatusBadRequest, nil)
			return
		}
		h, err := wsa.FromEnvelope(in)
		if err != nil {
			ex.ReplyBytes(httpx.StatusBadRequest, nil)
			return
		}
		out := soap.New(soap.V11).SetBody(in.BodyElement().Clone())
		(&wsa.Headers{
			To:        h.ReplyTo.Address,
			MessageID: wsa.NewMessageID(),
			RelatesTo: h.MessageID,
		}).Apply(out)
		raw, _ := out.Marshal()
		ex.Header().Set("Content-Type", soap.V11.ContentType())
		ex.ReplyBytes(httpx.StatusOK, raw)
	}), httpx.ServerConfig{Clock: clk})
	srvWS.Start(ln)
	defer srvWS.Close()

	reg := registry.New(registry.PolicyFirst, clk)
	reg.Register("sync-echo", "http://ws:81/msg")
	disp := New(reg, httpx.NewClient(wsd, httpx.ClientConfig{Clock: clk}), Config{
		Clock:         clk,
		ReturnAddress: "http://wsd:9100/msg",
	})
	disp.Start()
	defer disp.Stop()
	lnD, _ := wsd.Listen(9100)
	srvD := httpx.NewServer(disp, httpx.ServerConfig{Clock: clk})
	srvD.Start(lnD)
	defer srvD.Close()

	inbox := make(chan *soap.Envelope, 1)
	lnC, _ := cli.Listen(90)
	srvC := httpx.NewServer(httpx.HandlerFunc(func(ex *httpx.Exchange) {
		if env, err := soap.Parse(ex.Req.Body); err == nil {
			inbox <- env.Detach()
		}
		ex.ReplyBytes(httpx.StatusAccepted, nil)
	}), httpx.ServerConfig{Clock: clk})
	srvC.Start(lnC)
	defer srvC.Close()

	client := httpx.NewClient(cli, httpx.ClientConfig{Clock: clk})
	env := soap.New(soap.V11).SetBody(xmlsoap.NewText("urn:x", "q", "sync"))
	(&wsa.Headers{
		To:        LogicalScheme + "sync-echo",
		MessageID: wsa.NewMessageID(),
		ReplyTo:   &wsa.EPR{Address: "http://cli:90/msg"},
	}).Apply(env)
	raw, _ := env.Marshal()
	resp, err := client.Do("wsd:9100", httpx.NewRequest("POST", "/msg", raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusAccepted {
		t.Fatalf("status = %d", resp.Status)
	}
	select {
	case reply := <-inbox:
		if reply.BodyElement().Text != "sync" {
			t.Fatalf("reply = %s", reply.BodyElement())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("synchronously-addressed reply never routed")
	}
}
