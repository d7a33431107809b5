package msgdisp

import (
	"strings"
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

// rig: client (optionally firewalled) → MSG-Dispatcher (wsd) → async echo
// service (ws, firewalled except from wsd). The client runs its own
// message endpoint on cli:90.
type rig struct {
	clk    *clock.Virtual
	nw     *netsim.Network
	disp   *Dispatcher
	echo   *echoservice.Async
	client *httpx.Client
	inbox  chan *soap.Envelope
}

func newRig(t *testing.T, clientFirewalled bool, cfg Config) *rig {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	t.Cleanup(clk.Stop)
	nw := netsim.New(clk, 21)

	wsd := nw.AddHost("wsd", netsim.ProfileLAN())
	ws := nw.AddHost("ws", netsim.ProfileLAN(), netsim.WithFirewall(netsim.OutboundOnlyExcept("wsd")))
	var cliOpts []netsim.HostOption
	if clientFirewalled {
		cliOpts = append(cliOpts, netsim.WithFirewall(netsim.OutboundOnly()))
	}
	cli := nw.AddHost("cli", netsim.ProfileLAN(), cliOpts...)

	r := &rig{clk: clk, nw: nw, inbox: make(chan *soap.Envelope, 256)}

	// Async echo service on ws:81; its replies go to the rewritten
	// ReplyTo, i.e. back through the dispatcher.
	wsClient := httpx.NewClient(ws, httpx.ClientConfig{Clock: clk})
	r.echo = echoservice.NewAsync(clk, wsClient, 0)
	r.echo.OwnAddress = "http://ws:81/msg"
	r.echo.ReplyTimeout = 5 * time.Second
	lnWS, _ := ws.Listen(81)
	srvWS := httpx.NewServer(r.echo, httpx.ServerConfig{Clock: clk})
	srvWS.Start(lnWS)
	t.Cleanup(func() { srvWS.Close() })

	// Registry + dispatcher on wsd:9100.
	reg := registry.New(registry.PolicyFirst, clk)
	reg.Register("echo", "http://ws:81/msg")
	cfg.Clock = clk
	if cfg.ReturnAddress == "" {
		cfg.ReturnAddress = "http://wsd:9100/msg"
	}
	dispClient := httpx.NewClient(wsd, httpx.ClientConfig{Clock: clk})
	r.disp = New(reg, dispClient, cfg)
	if err := r.disp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.disp.Stop)
	lnD, _ := wsd.Listen(9100)
	srvD := httpx.NewServer(r.disp, httpx.ServerConfig{Clock: clk})
	srvD.Start(lnD)
	t.Cleanup(func() { srvD.Close() })

	// Client message endpoint on cli:90.
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

// send posts one WSA message to the dispatcher and returns its MessageID
// and HTTP status.
func (r *rig) send(t *testing.T, to, replyTo string) (string, int) {
	t.Helper()
	env := soap.New(soap.V11).SetBody(xmlsoap.NewText(echoservice.EchoNS, "echo", "m"))
	h := &wsa.Headers{To: to, Action: "urn:echo", MessageID: wsa.NewMessageID()}
	if replyTo != "" {
		h.ReplyTo = &wsa.EPR{Address: replyTo}
	}
	h.Apply(env)
	raw, _ := env.Marshal()
	resp, err := r.client.Do("wsd:9100", httpx.NewRequest("POST", "/msg", raw))
	if err != nil {
		t.Fatal(err)
	}
	return h.MessageID, resp.Status
}

func TestEndToEndAsyncEchoThroughDispatcher(t *testing.T) {
	r := newRig(t, false, Config{})
	msgID, status := r.send(t, LogicalScheme+"echo", "http://cli:90/msg")
	if status != httpx.StatusAccepted {
		t.Fatalf("send status = %d", status)
	}
	select {
	case env := <-r.inbox:
		h, err := wsa.FromEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		if h.RelatesTo != msgID {
			t.Fatalf("RelatesTo = %q, want %q", h.RelatesTo, msgID)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("reply never arrived at client")
	}
	waitFor(t, func() bool { return r.disp.ForwardedToWS.Value() == 1 })
	waitFor(t, func() bool { return r.disp.RepliesDelivered.Value() == 1 })
	if r.disp.PendingLen() != 0 {
		t.Fatalf("pending state leaked: %d", r.disp.PendingLen())
	}
}

func TestPhysicalToAddressBypassesRegistry(t *testing.T) {
	r := newRig(t, false, Config{})
	_, status := r.send(t, "http://ws:81/msg", "http://cli:90/msg")
	if status != httpx.StatusAccepted {
		t.Fatalf("status = %d", status)
	}
	waitFor(t, func() bool { return r.echo.Accepted.Value() == 1 })
}

func TestUnknownLogicalNameFaults(t *testing.T) {
	r := newRig(t, false, Config{})
	_, status := r.send(t, LogicalScheme+"ghost", "http://cli:90/msg")
	if status != httpx.StatusNotFound {
		t.Fatalf("status = %d", status)
	}
	if r.disp.Rejected.Value() == 0 {
		t.Fatal("rejection not counted")
	}
}

func TestMalformedEnvelopeRejected(t *testing.T) {
	r := newRig(t, false, Config{})
	resp, err := r.client.Do("wsd:9100", httpx.NewRequest("POST", "/msg", []byte("garbage")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusBadRequest {
		t.Fatalf("status = %d", resp.Status)
	}
	env, _ := soap.Parse(resp.Body)
	if f, ok := soap.AsFault(env); !ok || !strings.Contains(f.Reason, "invalid SOAP") {
		t.Fatalf("fault = %+v", f)
	}
}

func TestMissingAddressingRejected(t *testing.T) {
	r := newRig(t, false, Config{})
	env := soap.New(soap.V11).SetBody(xmlsoap.New("urn:x", "op"))
	raw, _ := env.Marshal()
	resp, _ := r.client.Do("wsd:9100", httpx.NewRequest("POST", "/msg", raw))
	if resp.Status != httpx.StatusBadRequest {
		t.Fatalf("status = %d", resp.Status)
	}
}

func TestReplyToFirewalledClientFailsButForwardSucceeds(t *testing.T) {
	r := newRig(t, true, Config{DeliveryTimeout: 2 * time.Second})
	_, status := r.send(t, LogicalScheme+"echo", "http://cli:90/msg")
	if status != httpx.StatusAccepted {
		t.Fatalf("status = %d", status)
	}
	// Forward leg reaches the service; reply leg dies at the firewall.
	waitFor(t, func() bool { return r.disp.ForwardedToWS.Value() == 1 })
	waitFor(t, func() bool { return r.disp.DeliveryFailures.Value() == 1 })
	if r.disp.RepliesDelivered.Value() != 0 {
		t.Fatal("reply crossed the firewall")
	}
}

func TestBatchingOverOneConnection(t *testing.T) {
	r := newRig(t, false, Config{HoldOpen: 10 * time.Second})
	const n = 10
	for i := 0; i < n; i++ {
		if _, status := r.send(t, LogicalScheme+"echo", ""); status != httpx.StatusAccepted {
			t.Fatalf("send %d status = %d", i, status)
		}
	}
	waitFor(t, func() bool { return r.disp.ForwardedToWS.Value() >= n })
	if got := r.disp.ForwardedToWS.Value(); got != n {
		t.Fatalf("ForwardedToWS = %d, want exactly %d (self-forwarding loop?)", got, n)
	}
	// All deliveries should share very few connections to the service
	// host thanks to the hold-open + keep-alive pool.
	ws := r.nw.Host("ws")
	if peak := ws.PeakConns(); peak > 3 {
		t.Fatalf("service saw %d concurrent conns, want few (batched)", peak)
	}
}

func TestQueueFullGives503(t *testing.T) {
	r := newRig(t, false, Config{
		QueueCap:        2,
		WsWorkers:       1,
		DeliveryTimeout: 2 * time.Second,
		HoldOpen:        100 * time.Millisecond,
	})
	// Stall the lone WsThread on a firewalled destination (the dial
	// consumes the full DeliveryTimeout), then overflow a second queue.
	r.nw.AddHost("blackhole", netsim.ProfileLAN(), netsim.WithFirewall(netsim.OutboundOnly()))
	if _, status := r.send(t, "http://blackhole:1/x", ""); status != httpx.StatusAccepted {
		t.Fatalf("stall send status = %d", status)
	}
	got503 := false
	for i := 0; i < 8; i++ {
		_, status := r.send(t, LogicalScheme+"echo", "")
		if status == httpx.StatusServiceUnavailable {
			got503 = true
			break
		}
	}
	if !got503 {
		t.Fatal("no 503 despite full queue")
	}
	if r.disp.QueueDrops.Value() == 0 {
		t.Fatal("drop not counted")
	}
}

func TestSweepPendingExpires(t *testing.T) {
	r := newRig(t, false, Config{PendingTTL: time.Minute})
	r.send(t, LogicalScheme+"echo", "http://cli:90/msg")
	// Consume the reply so this test controls remaining state.
	select {
	case <-r.inbox:
	case <-time.After(15 * time.Second):
		t.Fatal("no reply")
	}
	// Seed an entry that will never get a reply.
	r.disp.pending.Put("urn:uuid:orphan", pendingReply{
		replyTo: "http://cli:90/msg",
		expires: r.clk.Now().Add(time.Minute),
	})
	if n := r.disp.SweepPending(); n != 0 {
		t.Fatalf("premature sweep = %d", n)
	}
	r.clk.Sleep(2 * time.Minute)
	if n := r.disp.SweepPending(); n != 1 {
		t.Fatalf("sweep = %d, want 1", n)
	}
}

func TestUnmatchedReplyCounted(t *testing.T) {
	r := newRig(t, false, Config{})
	env := soap.New(soap.V11).SetBody(xmlsoap.New("urn:x", "late"))
	h := &wsa.Headers{
		To:        "http://cli:90/msg",
		MessageID: wsa.NewMessageID(),
		RelatesTo: "urn:uuid:never-seen",
	}
	h.Apply(env)
	raw, _ := env.Marshal()
	resp, _ := r.client.Do("wsd:9100", httpx.NewRequest("POST", "/msg", raw))
	// It still routes by To (physical), but the unmatched counter ticks.
	if resp.Status != httpx.StatusAccepted {
		t.Fatalf("status = %d", resp.Status)
	}
	if r.disp.UnmatchedReplies.Value() != 1 {
		t.Fatalf("UnmatchedReplies = %d", r.disp.UnmatchedReplies.Value())
	}
}

func TestStopRejectsNewWork(t *testing.T) {
	r := newRig(t, false, Config{})
	r.disp.Stop()
	_, status := r.send(t, LogicalScheme+"echo", "")
	if status != httpx.StatusServiceUnavailable {
		t.Fatalf("status after Stop = %d", status)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached")
}
