package msgdisp

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/reliable"
	"repro/internal/soap"
	"repro/internal/store"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// TestKillAndRecoverRedelivery is the durability acceptance scenario for
// the WAL-backed courier store: messages are enqueued through the
// MSG-Dispatcher while the destination is down, the whole dispatcher
// generation is hard-stopped mid-retry (the store is abandoned without
// Close, like a process crash — every accepted message's record has
// already reached the kernel), a second generation reopens the same WAL
// directory,
// and every unacked message is redelivered exactly once. Pooled buffers
// return to baseline after the surviving generation shuts down.
func TestKillAndRecoverRedelivery(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	defer clk.Stop()
	nw := netsim.New(clk, 52)
	wsd := nw.AddHost("wsd", netsim.ProfileLAN())
	ws := nw.AddHost("ws", netsim.ProfileLAN())
	cli := nw.AddHost("cli", netsim.ProfileLAN())
	dir := filepath.Join(t.TempDir(), "courier.wal")
	baseline := xmlsoap.PoolLive()

	// boot brings up one dispatcher+courier generation over the shared
	// WAL directory. The teardown closes everything except, optionally,
	// the store — a crash never gets to flush.
	boot := func() (*Dispatcher, *reliable.Courier, *store.Store, func(closeStore bool)) {
		st, err := store.Open(clk, dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		courierClient := httpx.NewClient(wsd, httpx.ClientConfig{Clock: clk})
		courier := reliable.New(st, courierClient, reliable.Config{
			Clock:          clk,
			InitialBackoff: 2 * time.Second,
			MaxBackoff:     5 * time.Second,
			AttemptTimeout: 2 * time.Second,
			DefaultTTL:     5 * time.Minute,
		})
		courier.Start()
		reg := registry.New(registry.PolicyFirst, clk)
		reg.Register("echo", "http://ws:81/msg")
		dispClient := httpx.NewClient(wsd, httpx.ClientConfig{Clock: clk})
		disp := New(reg, dispClient, Config{
			Clock:           clk,
			ReturnAddress:   "http://wsd:9100/msg",
			DeliveryTimeout: 2 * time.Second,
			Courier:         courier,
		})
		if err := disp.Start(); err != nil {
			t.Fatal(err)
		}
		lnD, err := wsd.Listen(9100)
		if err != nil {
			t.Fatal(err)
		}
		srvD := httpx.NewServer(disp, httpx.ServerConfig{Clock: clk})
		srvD.Start(lnD)
		return disp, courier, st, func(closeStore bool) {
			srvD.Close()
			disp.Stop()
			courier.Stop()
			courierClient.Close()
			dispClient.Close()
			if closeStore {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	send := func(client *httpx.Client, text string) {
		t.Helper()
		env := soap.New(soap.V11).SetBody(xmlsoap.NewText(echoservice.EchoNS, "echo", text))
		(&wsa.Headers{
			To:        LogicalScheme + "echo",
			Action:    echoservice.EchoNS + ":echo",
			MessageID: wsa.NewMessageID(),
		}).Apply(env)
		raw, err := env.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		req := httpx.NewRequest("POST", "/msg", raw)
		req.Header.Set("Content-Type", soap.V11.ContentType())
		resp, err := client.Do("wsd:9100", req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != httpx.StatusAccepted {
			t.Fatalf("send status = %d", resp.Status)
		}
		resp.Release()
	}

	// Generation 1: the destination is DOWN (no listener on ws:81), so
	// every forward fails over to the courier and persists.
	disp1, courier1, _, stop1 := boot()
	client := httpx.NewClient(cli, httpx.ClientConfig{Clock: clk, RequestTimeout: 10 * time.Second})
	const n = 3
	for i := 0; i < n; i++ {
		send(client, fmt.Sprintf("survivor-%d", i))
	}
	waitFor(t, func() bool { return disp1.HandedToCourier.Value() == n })
	waitFor(t, func() bool { return courier1.Pending() == n })
	client.Close()
	// Hard stop mid-retry: the store is NOT closed — recovery must come
	// from the WAL bytes alone.
	stop1(false)

	// Bring the destination up, then boot generation 2 from the same WAL.
	wsClient := httpx.NewClient(ws, httpx.ClientConfig{Clock: clk})
	echo := echoservice.NewAsync(clk, wsClient, 0)
	lnWS, err := ws.Listen(81)
	if err != nil {
		t.Fatal(err)
	}
	srvWS := httpx.NewServer(echo, httpx.ServerConfig{Clock: clk})
	srvWS.Start(lnWS)

	_, courier2, st2, stop2 := boot()
	waitFor(t, func() bool { return courier2.Delivered.Value() == n })
	// Exactly once: one attempt per recovered message, each landing on
	// the service once, and nothing left pending or persisted.
	if got := echo.Accepted.Value(); got != n {
		t.Fatalf("service accepted %d messages, want exactly %d", got, n)
	}
	if got := courier2.Attempts.Value(); got != n {
		t.Fatalf("recovery took %d attempts, want %d", got, n)
	}
	if courier2.Pending() != 0 {
		t.Fatalf("courier still holds %d messages", courier2.Pending())
	}
	if got := st2.Len(); got != 0 {
		t.Fatalf("store still holds %d records after redelivery", got)
	}
	stop2(true)
	srvWS.Close()
	wsClient.Close()

	waitFor(t, func() bool { return xmlsoap.PoolLive() <= baseline })
}
