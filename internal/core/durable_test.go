package core

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dispatch/msgdisp"
	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/msgbox"
	"repro/internal/netsim"
	"repro/internal/reliable"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

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

// TestDurableServerSurvivesRestart exercises Config.StoreDir through the
// composed server: a message accepted for a dead destination and a
// mailbox created over RPC both survive a full Stop/New/Start cycle on
// the same directory — the courier redelivers from its WAL once the
// destination returns, and the mailbox is back with its state.
func TestDurableServerSurvivesRestart(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	defer clk.Stop()
	nw := netsim.New(clk, 17)
	wsd := nw.AddHost("wsd", netsim.ProfileLAN())
	ws := nw.AddHost("ws", netsim.ProfileLAN())
	cli := nw.AddHost("cli", netsim.ProfileLAN())
	dir := filepath.Join(t.TempDir(), "state")

	boot := func() *Server {
		t.Helper()
		server, err := New(Config{
			Clock:      clk,
			HostName:   "wsd",
			Listen:     func(port int) (net.Listener, error) { return wsd.Listen(port) },
			Dialer:     wsd,
			MsgPort:    9100,
			MsgBoxPort: 9200,
			StoreDir:   dir,
			Courier: reliable.Config{
				InitialBackoff: 2 * time.Second,
				MaxBackoff:     5 * time.Second,
				AttemptTimeout: 2 * time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		server.Registry.Register("echo-msg", "http://ws:81/msg")
		if err := server.Start(); err != nil {
			t.Fatal(err)
		}
		return server
	}

	client := httpx.NewClient(cli, httpx.ClientConfig{Clock: clk, RequestTimeout: 10 * time.Second})
	defer client.Close()
	post := func(addr, path string, body []byte, want int) {
		t.Helper()
		req := httpx.NewRequest("POST", path, body)
		req.Header.Set("Content-Type", soap.V11.ContentType())
		resp, err := client.Do(addr, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != want {
			t.Fatalf("POST %s status = %d, want %d", path, resp.Status, want)
		}
		resp.Release()
	}

	// Generation 1: destination ws:81 is down. The forward fails over to
	// the courier's WAL; the mailbox create persists too.
	s1 := boot()
	env := soap.New(soap.V11).SetBody(xmlsoap.NewText(echoservice.EchoNS, "echo", "held"))
	(&wsa.Headers{
		To:        msgdisp.LogicalScheme + "echo-msg",
		Action:    echoservice.EchoNS + ":echo",
		MessageID: wsa.NewMessageID(),
	}).Apply(env)
	raw, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	post("wsd:9100", "/msg", raw, httpx.StatusAccepted)
	create, _ := soap.AppendRPC(nil, soap.V11, msgbox.ServiceNS, msgbox.OpCreate)
	post("wsd:9200", "/mbox", create, httpx.StatusOK)
	waitFor(t, func() bool { return s1.Courier.Pending() == 1 })
	s1.Stop()

	// The destination comes back; generation 2 reopens the same state.
	wsClient := httpx.NewClient(ws, httpx.ClientConfig{Clock: clk})
	defer wsClient.Close()
	echo := echoservice.NewAsync(clk, wsClient, 0)
	ln, err := ws.Listen(81)
	if err != nil {
		t.Fatal(err)
	}
	srvWS := httpx.NewServer(echo, httpx.ServerConfig{Clock: clk})
	srvWS.Start(ln)
	defer srvWS.Close()

	s2 := boot()
	defer s2.Stop()
	if got := s2.MsgBox.Boxes(); got != 1 {
		t.Fatalf("mailboxes after restart = %d, want 1", got)
	}
	waitFor(t, func() bool { return s2.Courier.Delivered.Value() == 1 })
	if got := echo.Accepted.Value(); got != 1 {
		t.Fatalf("service accepted %d deliveries, want exactly 1", got)
	}
	if got := s2.Courier.Pending(); got != 0 {
		t.Fatalf("courier still holds %d messages", got)
	}
}
