package rpcdisp

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
	"repro/internal/xmlsoap"
)

// rig: client → dispatcher (wsd) → echo services (ws1, ws2), all simulated.
type rig struct {
	clk    *clock.Virtual
	nw     *netsim.Network
	reg    *registry.Registry
	disp   *Dispatcher
	client *httpx.Client
	echo1  *echoservice.RPC
	echo2  *echoservice.RPC
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	t.Cleanup(clk.Stop)
	nw := netsim.New(clk, 11)

	wsd := nw.AddHost("wsd", netsim.ProfileLAN())
	ws1 := nw.AddHost("ws1", netsim.ProfileLAN(), netsim.WithFirewall(netsim.OutboundOnlyExcept("wsd")))
	ws2 := nw.AddHost("ws2", netsim.ProfileLAN(), netsim.WithFirewall(netsim.OutboundOnlyExcept("wsd")))
	cli := nw.AddHost("cli", netsim.ProfileLAN())

	r := &rig{clk: clk, nw: nw}

	r.echo1 = echoservice.NewRPC(clk, 0)
	ln1, _ := ws1.Listen(80)
	srv1 := httpx.NewServer(r.echo1, httpx.ServerConfig{Clock: clk})
	srv1.Start(ln1)
	t.Cleanup(func() { srv1.Close() })

	r.echo2 = echoservice.NewRPC(clk, 0)
	ln2, _ := ws2.Listen(80)
	srv2 := httpx.NewServer(r.echo2, httpx.ServerConfig{Clock: clk})
	srv2.Start(ln2)
	t.Cleanup(func() { srv2.Close() })

	r.reg = registry.New(registry.PolicyRoundRobin, clk)
	r.reg.Register("echo", "http://ws1:80/", "http://ws2:80/")

	cfg.Clock = clk
	fwdClient := httpx.NewClient(wsd, httpx.ClientConfig{Clock: clk})
	r.disp = New(r.reg, fwdClient, cfg)
	lnD, _ := wsd.Listen(9000)
	srvD := httpx.NewServer(r.disp, httpx.ServerConfig{Clock: clk})
	srvD.Start(lnD)
	t.Cleanup(func() { srvD.Close() })

	r.client = httpx.NewClient(cli, httpx.ClientConfig{Clock: clk, RequestTimeout: 10 * time.Second})
	t.Cleanup(r.client.Close)
	return r
}

func echoRequest(t *testing.T, msg string) *httpx.Request {
	t.Helper()
	body, err := soap.AppendRPC(nil, soap.V11, echoservice.EchoNS, echoservice.EchoOp,
		soap.Param{Name: "message", Value: msg})
	if err != nil {
		t.Fatal(err)
	}
	req := httpx.NewRequest("POST", "/rpc/echo", body)
	req.Header.Set("Content-Type", soap.V11.ContentType())
	return req
}

func TestForwardsThroughFirewall(t *testing.T) {
	r := newRig(t, Config{})
	resp, err := r.client.Do("wsd:9000", echoRequest(t, "hello"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusOK {
		t.Fatalf("status = %d body=%s", resp.Status, resp.Body)
	}
	env, _ := soap.Parse(resp.Body)
	results, err := soap.ParseRPCResponse(env, echoservice.EchoOp)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Value != "hello" {
		t.Fatalf("echo = %+v", results)
	}
	if r.disp.Forwarded.Value() != 1 {
		t.Fatalf("Forwarded = %d", r.disp.Forwarded.Value())
	}
	// The client cannot reach ws1 directly — that's the point.
	if _, err := r.client.DoTimeout("ws1:80", echoRequest(t, "direct"), time.Second); err == nil {
		t.Fatal("direct call through firewall succeeded")
	}
}

func TestRoundRobinAcrossFarm(t *testing.T) {
	r := newRig(t, Config{})
	for i := 0; i < 6; i++ {
		if _, err := r.client.Do("wsd:9000", echoRequest(t, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if r.echo1.Handled.Value() != 3 || r.echo2.Handled.Value() != 3 {
		t.Fatalf("farm split = %d/%d, want 3/3",
			r.echo1.Handled.Value(), r.echo2.Handled.Value())
	}
}

func TestUnknownServiceReturns404Fault(t *testing.T) {
	r := newRig(t, Config{})
	body, _ := soap.AppendRPC(nil, soap.V11, "urn:x", "op")
	resp, err := r.client.Do("wsd:9000", httpx.NewRequest("POST", "/rpc/ghost", body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusNotFound {
		t.Fatalf("status = %d", resp.Status)
	}
	env, err := soap.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := soap.AsFault(env); !ok || f.Code != soap.FaultClient {
		t.Fatalf("fault = %+v, %v", f, ok)
	}
	if r.disp.LookupFailures.Value() != 1 {
		t.Fatalf("LookupFailures = %d", r.disp.LookupFailures.Value())
	}
}

func TestBadPathRejected(t *testing.T) {
	r := newRig(t, Config{})
	for _, path := range []string{"/rpc/", "/other/echo", "/rpc/a/b"} {
		resp, err := r.client.Do("wsd:9000", httpx.NewRequest("POST", path, []byte("<x/>")))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != httpx.StatusNotFound {
			t.Fatalf("path %q: status = %d", path, resp.Status)
		}
	}
}

func TestValidateRejectsMalformedSOAP(t *testing.T) {
	r := newRig(t, Config{Validate: true})
	req := httpx.NewRequest("POST", "/rpc/echo", []byte("not soap at all"))
	resp, err := r.client.Do("wsd:9000", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusBadRequest {
		t.Fatalf("status = %d", resp.Status)
	}
	// The garbage never reached the service.
	if r.echo1.Handled.Value()+r.echo2.Handled.Value() != 0 {
		t.Fatal("malformed request forwarded")
	}
}

func TestValidateRejectsMustUnderstand(t *testing.T) {
	r := newRig(t, Config{Validate: true})
	env := soap.New(soap.V11).SetBody(xmlsoap.New(echoservice.EchoNS, echoservice.EchoOp).Add(xmlsoap.NewText("", "message", "x")))
	hdr := xmlsoap.New("urn:critical:ext", "MustHandle")
	hdr.SetAttr(soap.NS11, "mustUnderstand", "1")
	env.AddHeader(hdr)
	raw, _ := env.Marshal()
	resp, err := r.client.Do("wsd:9000", httpx.NewRequest("POST", "/rpc/echo", raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusBadRequest {
		t.Fatalf("status = %d", resp.Status)
	}
	fenv, _ := soap.Parse(resp.Body)
	if f, ok := soap.AsFault(fenv); !ok || !strings.Contains(f.Reason, "not understood") {
		t.Fatalf("fault = %+v", f)
	}
}

func TestFailoverRetriesSecondBackend(t *testing.T) {
	r := newRig(t, Config{MarkDeadOnError: true, ForwardTimeout: 2 * time.Second})
	// Register a dead endpoint first in line under PolicyFirst.
	reg2 := registry.New(registry.PolicyFirst, r.clk)
	reg2.Register("echo", "http://nowhere:1/", "http://ws1:80/")
	r.disp.registry = reg2

	// First call hits the dead endpoint, fails over, and still succeeds
	// on the original connection.
	resp, err := r.client.Do("wsd:9000", echoRequest(t, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusOK {
		t.Fatalf("first status = %d body=%s", resp.Status, resp.Body)
	}
	if got := r.disp.Failovers.Value(); got != 1 {
		t.Fatalf("Failovers = %d, want 1", got)
	}
	if got := r.disp.ForwardFailures.Value(); got != 0 {
		t.Fatalf("ForwardFailures = %d, want 0 (exchange succeeded)", got)
	}

	// The failed endpoint was marked dead, so the second call routes
	// straight to the live backend without another failover.
	resp, err = r.client.Do("wsd:9000", echoRequest(t, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusOK {
		t.Fatalf("second status = %d body=%s", resp.Status, resp.Body)
	}
	if got := r.disp.Failovers.Value(); got != 1 {
		t.Fatalf("Failovers after second call = %d, want still 1", got)
	}
}

func TestAllBackendsDeadReturns503(t *testing.T) {
	r := newRig(t, Config{MarkDeadOnError: true, ForwardTimeout: 2 * time.Second})
	reg2 := registry.New(registry.PolicyFirst, r.clk)
	reg2.Register("echo", "http://nowhere:1/", "http://elsewhere:1/")
	r.disp.registry = reg2

	// Both attempts fail: one 502, one ForwardFailures tick for the
	// whole exchange, and both endpoints get marked dead.
	resp, err := r.client.Do("wsd:9000", echoRequest(t, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusBadGateway {
		t.Fatalf("first status = %d", resp.Status)
	}
	if got := r.disp.ForwardFailures.Value(); got != 1 {
		t.Fatalf("ForwardFailures = %d, want 1 (per exchange, not per attempt)", got)
	}
	if got := r.disp.Failovers.Value(); got != 1 {
		t.Fatalf("Failovers = %d, want 1", got)
	}

	// With every endpoint dead the next call is refused up front.
	resp, err = r.client.Do("wsd:9000", echoRequest(t, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusServiceUnavailable {
		t.Fatalf("all-dead status = %d, want 503", resp.Status)
	}
	if got := r.disp.LookupFailures.Value(); got != 1 {
		t.Fatalf("LookupFailures = %d, want 1", got)
	}
}

func TestSlowServiceTimesOutWith502(t *testing.T) {
	r := newRig(t, Config{ForwardTimeout: time.Second})
	r.echo1.ServiceTime = 10 * time.Second
	r.echo2.ServiceTime = 10 * time.Second
	resp, err := r.client.Do("wsd:9000", echoRequest(t, "slow"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != httpx.StatusBadGateway {
		t.Fatalf("status = %d", resp.Status)
	}
	if r.disp.ForwardFailures.Value() != 1 {
		t.Fatalf("ForwardFailures = %d", r.disp.ForwardFailures.Value())
	}
}

func TestDirectoryPage(t *testing.T) {
	r := newRig(t, Config{})
	page := string(DirectoryPage(r.reg))
	for _, want := range []string{`name="echo"`, "http://ws1:80/", "http://ws2:80/"} {
		if !strings.Contains(page, want) {
			t.Fatalf("directory page missing %q:\n%s", want, page)
		}
	}
}
