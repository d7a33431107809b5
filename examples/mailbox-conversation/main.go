// Mailbox conversation: an endpoint-less client (think: an applet behind
// a NAT) holds a long-running asynchronous conversation with a slow Web
// Service through the MSG-Dispatcher and a WS-MsgBox mailbox.
//
// The service takes 45 (virtual) seconds per answer — longer than any
// RPC/TCP timeout — yet the conversation completes, because nothing holds
// a connection open: the reply parks in the mailbox until the client
// polls it. This is the paper's Table 1 quadrant (4), "Unlimited".
//
// Run with:
//
//	go run ./examples/mailbox-conversation
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/dispatch/msgdisp"
	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/xmlsoap"
)

func main() {
	clk := clock.NewVirtual(time.Unix(0, 0))
	defer clk.Stop()
	nw := netsim.New(clk, 2)

	// The client is private (no routable address at all) and behind an
	// outbound-only firewall.
	cli := nw.AddHost("applet", netsim.ProfileLAN(),
		netsim.WithFirewall(netsim.OutboundOnly()), netsim.WithPrivateAddress())
	wsd := nw.AddHost("wsd", netsim.ProfileLAN())
	ws := nw.AddHost("ws", netsim.ProfileLAN(),
		netsim.WithFirewall(netsim.OutboundOnlyExcept("wsd")))

	// A *slow* asynchronous echo service: 45s per reply.
	wsHTTP := httpx.NewClient(ws, httpx.ClientConfig{Clock: clk})
	echo := echoservice.NewAsync(clk, wsHTTP, 45*time.Second)
	echo.OwnAddress = "http://ws:81/msg"
	ln, err := ws.Listen(81)
	if err != nil {
		log.Fatal(err)
	}
	srv := httpx.NewServer(echo, httpx.ServerConfig{Clock: clk})
	srv.Start(ln)
	defer srv.Close()

	// Dispatcher + co-located mailbox service.
	server, err := core.New(core.Config{
		Clock:      clk,
		HostName:   "wsd",
		Listen:     func(port int) (net.Listener, error) { return wsd.Listen(port) },
		Dialer:     wsd,
		MsgPort:    9100,
		MsgBoxPort: 9200,
		Policy:     registry.PolicyFirst,
	})
	if err != nil {
		log.Fatal(err)
	}
	server.Registry.Register("slow-echo", "http://ws:81/msg")
	if err := server.Start(); err != nil {
		log.Fatal(err)
	}
	defer server.Stop()

	// Client stack: RPC for mailbox management, Messenger for sends.
	httpCli := httpx.NewClient(cli, httpx.ClientConfig{Clock: clk})
	rpc := client.NewRPC(httpCli)
	mboxCli := client.NewMailboxClient(rpc, server.MsgBoxURL(), clk)

	box, err := mboxCli.Create()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created mailbox %s\n", box.Address)

	conv := &client.Conversation{
		Messenger:     client.NewMessenger(httpCli),
		Mailbox:       mboxCli,
		Box:           box,
		DispatcherURL: server.MsgURL(),
	}

	start := clk.Now()
	reply, err := conv.Call(msgdisp.LogicalScheme+"slow-echo", "urn:example:ask",
		xmlsoap.NewText(echoservice.EchoNS, "echo", "what is the answer?"),
		5*time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reply after %v (virtual): %q\n", clk.Since(start), reply.BodyElement().Text)
	fmt.Println("no inbound connection to the client was ever needed")

	if err := mboxCli.Destroy(box); err != nil {
		log.Fatal(err)
	}
	fmt.Println("mailbox destroyed")
}
