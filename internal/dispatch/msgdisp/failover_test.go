package msgdisp

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// TestLoadgenFailoverAcrossBackendKill is the PR's failover acceptance
// scenario end-to-end: loadgen drives anonymous RPC-style traffic through
// the MSG-Dispatcher at a two-backend farm, one backend is killed
// mid-run, and the error rate must recover because delivery failures mark
// the dead endpoint (MarkDeadOnError → MarkDeadURL) and resolution fails
// over to the survivor. Afterwards nothing may be stuck: no retained
// pending entries (every waiter either got its reply or timed out and
// cleaned up) and the pooled-buffer count returns to its pre-traffic
// baseline.
func TestLoadgenFailoverAcrossBackendKill(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	t.Cleanup(clk.Stop)
	nw := netsim.New(clk, 83)

	wsd := nw.AddHost("wsd", netsim.ProfileLAN())
	ws1 := nw.AddHost("ws1", netsim.ProfileLAN())
	ws2 := nw.AddHost("ws2", netsim.ProfileLAN())
	cli := nw.AddHost("cli", netsim.ProfileLAN())

	live0 := xmlsoap.PoolLive()

	echo1 := echoservice.NewRPC(clk, time.Millisecond)
	ln1, _ := ws1.Listen(80)
	srv1 := httpx.NewServer(echo1, httpx.ServerConfig{Clock: clk})
	srv1.Start(ln1)
	t.Cleanup(func() { srv1.Close() })

	echo2 := echoservice.NewRPC(clk, time.Millisecond)
	ln2, _ := ws2.Listen(80)
	srv2 := httpx.NewServer(echo2, httpx.ServerConfig{Clock: clk})
	srv2.Start(ln2)
	t.Cleanup(func() { srv2.Close() })

	reg := registry.New(registry.PolicyRoundRobin, clk)
	reg.Register("echo", "http://ws1:80/", "http://ws2:80/")

	disp := New(reg, httpx.NewClient(wsd, httpx.ClientConfig{Clock: clk}), Config{
		Clock:           clk,
		ReturnAddress:   "http://wsd:9100/msg",
		AnonymousWait:   2 * time.Second,
		DeliveryTimeout: 2 * time.Second,
		HoldOpen:        time.Second,
		MarkDeadOnError: true,
	})
	if err := disp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disp.Stop)
	lnD, _ := wsd.Listen(9100)
	srvD := httpx.NewServer(disp, httpx.ServerConfig{Clock: clk})
	srvD.Start(lnD)
	t.Cleanup(func() { srvD.Close() })

	httpCli := httpx.NewClient(cli, httpx.ClientConfig{Clock: clk, RequestTimeout: 10 * time.Second})
	t.Cleanup(httpCli.Close)

	op := func(id, seq int) error {
		env := soap.New(soap.V11).SetBody(xmlsoap.New(echoservice.EchoNS, echoservice.EchoOp).Add(xmlsoap.NewText("", "message", "failover")))
		(&wsa.Headers{
			To:        LogicalScheme + "echo",
			Action:    echoservice.EchoNS + ":" + echoservice.EchoOp,
			MessageID: fmt.Sprintf("urn:loadgen:%d:%d", id, seq),
			ReplyTo:   &wsa.EPR{Address: wsa.Anonymous},
		}).Apply(env)
		raw, err := env.Marshal()
		if err != nil {
			return err
		}
		req := httpx.NewRequest("POST", "/msg", raw)
		req.Header.Set("Content-Type", soap.V11.ContentType())
		resp, err := httpCli.Do("wsd:9100", req)
		if err != nil {
			return err
		}
		status := resp.Status
		resp.Release()
		if status != httpx.StatusOK {
			return fmt.Errorf("HTTP %d", status)
		}
		return nil
	}

	// Kill one backend a third of the way into the run.
	go func() {
		clk.Sleep(20 * time.Second)
		srv1.Close()
	}()

	rep := loadgen.Run(loadgen.Config{
		Clock:     clk,
		Clients:   8,
		Duration:  60 * time.Second,
		ThinkTime: 250 * time.Millisecond,
		Series:    "failover",
	}, op)

	if rep.Transmitted == 0 {
		t.Fatalf("no traffic got through: %+v", rep)
	}
	// The kill is observable: deliveries racing it failed. Round-robin
	// keeps steering every other message at ws1 until its first failed
	// delivery marks it dead, so at least one failure is guaranteed.
	if disp.DeliveryFailures.Value() == 0 {
		t.Fatal("backend kill produced no delivery failures — kill never observed")
	}
	// Recovery: with ws1 marked dead, fresh calls must all succeed via
	// ws2 — the error rate is back to zero, not merely reduced.
	before2 := echo2.Handled.Value()
	for i := 0; i < 6; i++ {
		if err := op(999, i); err != nil {
			t.Fatalf("post-kill call %d still failing: %v", i, err)
		}
	}
	if got := echo2.Handled.Value(); got < before2+6 {
		t.Fatalf("survivor handled %d post-kill calls, want ≥ 6", got-before2)
	}

	// No stuck waiters: every pending entry was either claimed by its
	// reply or deleted by its timed-out waiter once the anonymous window
	// passes.
	clk.Sleep(3 * time.Second)
	waitFor(t, func() bool { return disp.PendingLen() == 0 })
	// No leaked pooled buffers: live count returns to the pre-traffic
	// baseline (failed deliveries released their payloads too).
	waitFor(t, func() bool { return xmlsoap.PoolLive() <= live0 })
}
