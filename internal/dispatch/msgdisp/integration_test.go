package msgdisp

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/msgbox"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// TestFirewalledPeerMailboxConversation is the paper's headline scenario
// (§3, Figure 2 + Table 1 quadrant 4) end-to-end over netsim: a peer
// behind an outbound-only firewall converses with an asynchronous echo
// service through the MSG-Dispatcher, receiving every reply via a
// WS-MsgBox mailbox it polls over RPC. On top of the functional checks
// it verifies the two properties this PR's pipeline must preserve:
//
//   - ordering: messages queued to one destination (the mailbox) are
//     delivered and stored FIFO, so a batched Take returns them in send
//     order;
//   - buffer hygiene: with the pool lifecycle checker on (TestMain),
//     the number of outstanding pooled buffers returns to its baseline
//     once the conversation ends — no pooled bytes leak past any
//     exchange in the client, dispatcher, echo service, or mailbox.
func TestFirewalledPeerMailboxConversation(t *testing.T) {
	clk := clock.NewVirtual(time.Unix(0, 0))
	t.Cleanup(clk.Stop)
	nw := netsim.New(clk, 77)

	wsd := nw.AddHost("wsd", netsim.ProfileLAN())
	ws := nw.AddHost("ws", netsim.ProfileLAN(), netsim.WithFirewall(netsim.OutboundOnlyExcept("wsd")))
	peer := nw.AddHost("peer", netsim.ProfileLAN(), netsim.WithFirewall(netsim.OutboundOnly()))

	live0 := xmlsoap.PoolLive()

	// Asynchronous echo service on ws:81, replying through the
	// dispatcher (its ReplyTo is rewritten there).
	echo := echoservice.NewAsync(clk, httpx.NewClient(ws, httpx.ClientConfig{Clock: clk}), 10*time.Millisecond)
	echo.OwnAddress = "http://ws:81/msg"
	echo.ReplyTimeout = 5 * time.Second
	lnWS, _ := ws.Listen(81)
	srvWS := httpx.NewServer(echo, httpx.ServerConfig{Clock: clk})
	srvWS.Start(lnWS)
	t.Cleanup(func() { srvWS.Close() })

	// WS-MsgBox on wsd:9200 (co-located with the dispatcher host, as in
	// the paper's deployment).
	mbox := msgbox.New(msgbox.Config{Clock: clk, BaseURL: "http://wsd:9200"})
	if err := mbox.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mbox.Stop)
	lnMB, _ := wsd.Listen(9200)
	srvMB := httpx.NewServer(mbox, httpx.ServerConfig{Clock: clk})
	srvMB.Start(lnMB)
	t.Cleanup(func() { srvMB.Close() })

	// MSG-Dispatcher on wsd:9100.
	reg := registry.New(registry.PolicyFirst, clk)
	reg.Register("echo", "http://ws:81/msg")
	disp := New(reg, httpx.NewClient(wsd, httpx.ClientConfig{Clock: clk}), Config{
		Clock:         clk,
		ReturnAddress: "http://wsd:9100/msg",
	})
	if err := disp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disp.Stop)
	lnD, _ := wsd.Listen(9100)
	srvD := httpx.NewServer(disp, httpx.ServerConfig{Clock: clk})
	srvD.Start(lnD)
	t.Cleanup(func() { srvD.Close() })

	// Peer stack: everything outbound — mailbox management over RPC,
	// sends through the dispatcher, replies via mailbox polling.
	httpPeer := httpx.NewClient(peer, httpx.ClientConfig{Clock: clk})
	t.Cleanup(httpPeer.Close)
	rpc := client.NewRPC(httpPeer)
	mboxCli := client.NewMailboxClient(rpc, "http://wsd:9200/mbox", clk)
	box, err := mboxCli.Create()
	if err != nil {
		t.Fatal(err)
	}

	conv := &client.Conversation{
		Messenger:     client.NewMessenger(httpPeer),
		Mailbox:       mboxCli,
		Box:           box,
		DispatcherURL: "http://wsd:9100/msg",
	}

	// A multi-message conversation: each call round-trips peer →
	// dispatcher → echo → dispatcher → mailbox → peer.
	for i := 1; i <= 4; i++ {
		text := fmt.Sprintf("conversation message %d", i)
		reply, err := conv.Call(LogicalScheme+"echo", echoservice.EchoNS+":echo",
			xmlsoap.NewText(echoservice.EchoNS, "echo", text), time.Minute)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := reply.BodyElement().Text; got != text {
			t.Fatalf("call %d echoed %q, want %q", i, got, text)
		}
	}

	// Ordering: queue a burst of one-way messages addressed straight to
	// the mailbox's physical address. They ride one destination FIFO
	// and one kept-alive connection, so the mailbox must store — and a
	// batched take must return — them in send order.
	const burst = 6
	for i := 0; i < burst; i++ {
		_, err := conv.Messenger.Send("http://wsd:9100/msg", &wsa.Headers{
			To:     box.Address,
			Action: "urn:test:ordered",
		}, xmlsoap.NewText("urn:test", "seq", strconv.Itoa(i)))
		if err != nil {
			t.Fatalf("burst send %d: %v", i, err)
		}
	}
	waitFor(t, func() bool {
		n, err := mboxCli.Peek(box)
		return err == nil && n >= burst
	})
	stored, err := mboxCli.Take(box, burst+4)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != burst {
		t.Fatalf("took %d messages, want %d", len(stored), burst)
	}
	for i, env := range stored {
		if got := env.BodyElement().Text; got != strconv.Itoa(i) {
			t.Fatalf("message %d out of order: body %q", i, got)
		}
	}

	// Tear down the conversation state and verify no pooled bytes
	// leaked past any exchange: outstanding pooled buffers must return
	// to the pre-traffic baseline (stored mailbox payloads were all
	// taken; Destroy releases anything left).
	if err := mboxCli.Destroy(box); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return xmlsoap.PoolLive() <= live0 })
	if n := disp.PendingLen(); n != 0 {
		t.Fatalf("dispatcher retained %d pending entries", n)
	}
}
