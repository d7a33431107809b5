package core

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/dispatch/msgdisp"
	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/soap"
	"repro/internal/wsdl"
	"repro/internal/xmlsoap"
)

// rig deploys a full WS-Dispatcher (RPC + MSG + MsgBox) with an echo
// service behind a firewall.
type rig struct {
	clk    *clock.Virtual
	server *Server
	http   *httpx.Client
	rpcCli *client.RPC
}

func newRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	t.Cleanup(clk.Stop)
	nw := netsim.New(clk, 99)
	wsd := nw.AddHost("wsd", netsim.ProfileLAN())
	ws := nw.AddHost("ws", netsim.ProfileLAN(), netsim.WithFirewall(netsim.OutboundOnlyExcept("wsd")))
	cli := nw.AddHost("cli", netsim.ProfileLAN())

	// Echo services behind the firewall.
	rpcEcho := echoservice.NewRPC(clk, 0)
	ln80, _ := ws.Listen(80)
	s80 := httpx.NewServer(rpcEcho, httpx.ServerConfig{Clock: clk})
	s80.Start(ln80)
	t.Cleanup(func() { s80.Close() })

	wsClient := httpx.NewClient(ws, httpx.ClientConfig{Clock: clk})
	asyncEcho := echoservice.NewAsync(clk, wsClient, 0)
	asyncEcho.OwnAddress = "http://ws:81/msg"
	ln81, _ := ws.Listen(81)
	s81 := httpx.NewServer(asyncEcho, httpx.ServerConfig{Clock: clk})
	s81.Start(ln81)
	t.Cleanup(func() { s81.Close() })

	cfg := Config{
		Clock:      clk,
		HostName:   "wsd",
		Listen:     func(port int) (net.Listener, error) { return wsd.Listen(port) },
		Dialer:     wsd,
		RPCPort:    9000,
		MsgPort:    9100,
		MsgBoxPort: 9200,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	server, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	server.Registry.Register("echo", "http://ws:80/")
	server.Registry.Register("echo-msg", "http://ws:81/msg")
	server.Registry.SetDoc("echo", &wsdl.Service{
		Name: "echo", TargetNS: echoservice.EchoNS,
		Documentation: "echo test service",
		Operations:    []wsdl.Operation{{Name: echoservice.EchoOp}},
	})
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Stop)

	httpCli := httpx.NewClient(cli, httpx.ClientConfig{Clock: clk, RequestTimeout: 10 * time.Second})
	t.Cleanup(httpCli.Close)
	return &rig{clk: clk, server: server, http: httpCli, rpcCli: client.NewRPC(httpCli)}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{HostName: "h"}); err == nil {
		t.Fatal("config without Listen/Dialer accepted")
	}
}

func TestRPCThroughComposedServer(t *testing.T) {
	r := newRig(t, nil)
	results, err := r.rpcCli.Call(r.server.RPCURL()+"/rpc/echo",
		echoservice.EchoNS, echoservice.EchoOp,
		soap.Param{Name: "message", Value: "composed"})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Value != "composed" {
		t.Fatalf("results = %+v", results)
	}
}

func TestRegistryDirectoryServed(t *testing.T) {
	r := newRig(t, nil)
	resp, err := r.http.Do("wsd:9000", httpx.NewRequest("GET", "/registry", nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusOK || !strings.Contains(string(resp.Body), `name="echo"`) {
		t.Fatalf("directory = %d %s", resp.Status, resp.Body)
	}
}

func TestWSDLServed(t *testing.T) {
	r := newRig(t, nil)
	resp, err := r.http.Do("wsd:9000", httpx.NewRequest("GET", "/wsdl/echo", nil))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusOK {
		t.Fatalf("status = %d", resp.Status)
	}
	doc, err := wsdl.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The endpoint is filled with the *dispatcher* URL: clients are
	// pointed at the logical address, not the firewalled physical one.
	if doc.Endpoint != "http://wsd:9000/rpc/echo" {
		t.Fatalf("endpoint = %q", doc.Endpoint)
	}
	if resp2, _ := r.http.Do("wsd:9000", httpx.NewRequest("GET", "/wsdl/ghost", nil)); resp2.Status != httpx.StatusNotFound {
		t.Fatalf("ghost wsdl status = %d", resp2.Status)
	}
}

func TestFullConversationThroughComposedServer(t *testing.T) {
	r := newRig(t, nil)
	mboxCli := client.NewMailboxClient(r.rpcCli, r.server.MsgBoxURL(), r.clk)
	box, err := mboxCli.Create()
	if err != nil {
		t.Fatal(err)
	}
	conv := &client.Conversation{
		Messenger:     client.NewMessenger(r.http),
		Mailbox:       mboxCli,
		Box:           box,
		DispatcherURL: r.server.MsgURL(),
	}
	reply, err := conv.Call(msgdisp.LogicalScheme+"echo-msg", "urn:echo",
		xmlsoap.NewText(echoservice.EchoNS, "echo", "all-in-one"), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.BodyElement().Text != "all-in-one" {
		t.Fatalf("reply = %s", reply.BodyElement())
	}
}

func TestSSOBlocksUntokenedRequests(t *testing.T) {
	clkAuthority := clock.NewVirtual(time.Unix(0, 0))
	defer clkAuthority.Stop()
	authority := auth.New([]byte("k"), time.Hour, clkAuthority)
	authority.AddPrincipal("alice", "pw")

	r := newRig(t, func(cfg *Config) { cfg.Authority = authority })

	// No token: 401.
	body, _ := soap.AppendRPC(nil, soap.V11, echoservice.EchoNS, echoservice.EchoOp,
		soap.Param{Name: "message", Value: "x"})
	req := httpx.NewRequest("POST", "/rpc/echo", body)
	resp, err := r.http.Do("wsd:9000", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusUnauthorized {
		t.Fatalf("untokened status = %d", resp.Status)
	}

	// Login via the dispatcher's own /login endpoint.
	results, err := r.rpcCli.Call(r.server.RPCURL()+"/login", "urn:wsd:auth", "login",
		soap.Param{Name: "principal", Value: "alice"},
		soap.Param{Name: "secret", Value: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	token := results[0].Value
	if token == "" {
		t.Fatal("empty token")
	}

	// Tokened request passes.
	req2 := httpx.NewRequest("POST", "/rpc/echo", body)
	req2.Header.Set(auth.HeaderName, token)
	resp2, err := r.http.Do("wsd:9000", req2)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Status != httpx.StatusOK {
		t.Fatalf("tokened status = %d body=%s", resp2.Status, resp2.Body)
	}

	// Bad login is refused.
	if _, err := r.rpcCli.Call(r.server.RPCURL()+"/login", "urn:wsd:auth", "login",
		soap.Param{Name: "principal", Value: "alice"},
		soap.Param{Name: "secret", Value: "wrong"}); err == nil {
		t.Fatal("bad login succeeded")
	}
}

func TestUnknownPaths404(t *testing.T) {
	r := newRig(t, nil)
	for _, tc := range []struct{ addr, path string }{
		{"wsd:9000", "/nope"},
		{"wsd:9100", "/nope"},
	} {
		resp, err := r.http.Do(tc.addr, httpx.NewRequest("GET", tc.path, nil))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != httpx.StatusNotFound {
			t.Fatalf("%s%s status = %d", tc.addr, tc.path, resp.Status)
		}
	}
}

func TestSweepRunsPeriodically(t *testing.T) {
	r := newRig(t, func(cfg *Config) { cfg.SweepEvery = time.Second })
	// Nothing to assert beyond "it doesn't crash while time passes".
	r.clk.Sleep(5 * time.Second)
	if r.server.Msg.PendingLen() != 0 {
		t.Fatalf("pending = %d", r.server.Msg.PendingLen())
	}
}
