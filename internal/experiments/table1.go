package experiments

import (
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dispatch/msgdisp"
	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// Table1Options parameterizes the interaction-matrix reproduction.
type Table1Options struct {
	// SlowResponse is the service time of the "slow" variant — long
	// enough to outlive the RPC-side HTTP/TCP timeout (25s anonymous
	// wait, 30s client budget). Default 40s.
	SlowResponse time.Duration
	// Seed feeds the deterministic network.
	Seed int64
}

func (o Table1Options) withDefaults() Table1Options {
	if o.SlowResponse <= 0 {
		o.SlowResponse = 40 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Table1Cell is one quadrant of the paper's Table 1, exercised twice:
// with a fast service and with one whose response outlives RPC timeouts.
type Table1Cell struct {
	// Quadrant is the paper's cell number (1-4).
	Quadrant int
	// ClientStyle and ServiceStyle name the row and column.
	ClientStyle  string
	ServiceStyle string
	// PaperVerdict is the paper's qualitative assessment.
	PaperVerdict string
	// FastOK / SlowOK report whether the exchange completed.
	FastOK bool
	SlowOK bool
	// FastDetail / SlowDetail explain the outcomes.
	FastDetail string
	SlowDetail string
}

// RunTable1 exercises all four interaction quadrants.
func RunTable1(opt Table1Options) []Table1Cell {
	opt = opt.withDefaults()
	cells := []Table1Cell{
		{Quadrant: 1, ClientStyle: "RPC client", ServiceStyle: "RPC service",
			PaperVerdict: "Limited but very popular (RPC connection is forwarded)"},
		{Quadrant: 2, ClientStyle: "RPC client", ServiceStyle: "Messaging service",
			PaperVerdict: "Very limited (may not work at all if message reply comes too late)"},
		{Quadrant: 3, ClientStyle: "Messaging client", ServiceStyle: "RPC service",
			PaperVerdict: "Limited: RPC server is a bottleneck (translation of semantics)"},
		{Quadrant: 4, ClientStyle: "Messaging client", ServiceStyle: "Messaging service",
			PaperVerdict: "Unlimited (no transport time limit on sending response)"},
	}
	for i := range cells {
		cells[i].FastOK, cells[i].FastDetail = runQuadrant(opt, cells[i].Quadrant, 5*time.Millisecond)
		cells[i].SlowOK, cells[i].SlowDetail = runQuadrant(opt, cells[i].Quadrant, opt.SlowResponse)
	}
	return cells
}

// runQuadrant performs one echo exchange in the given interaction style
// and reports whether the caller obtained the echoed payload.
func runQuadrant(opt Table1Options, quadrant int, serviceTime time.Duration) (bool, string) {
	tb := newTestbed(opt.Seed, fineCoalesce)
	defer tb.Close()

	cliHost := tb.nw.AddHost("cli", profileClientIUHigh(),
		netsim.WithFirewall(netsim.OutboundOnly()), netsim.WithPrivateAddress(), netsim.WithMaxConns(512))
	wsHost := tb.nw.AddHost("ws", profileSite(),
		netsim.WithFirewall(netsim.OutboundOnlyExcept("wsd")))
	wsdHost := tb.nw.AddHost("wsd", profileSite(), netsim.WithMaxConns(2048))

	// Both service styles, behind the firewall.
	rpcEcho := echoservice.NewRPC(tb.clk, serviceTime)
	lnRPC, err := wsHost.Listen(80)
	if err != nil {
		panic(err)
	}
	srvRPC := httpx.NewServer(rpcEcho, httpx.ServerConfig{Clock: tb.clk})
	srvRPC.Start(lnRPC)
	tb.onClose(func() { srvRPC.Close() })

	wsClient := httpx.NewClient(wsHost, httpx.ClientConfig{Clock: tb.clk})
	asyncEcho := echoservice.NewAsync(tb.clk, wsClient, serviceTime)
	asyncEcho.OwnAddress = "http://ws:81/msg"
	lnAsync, err := wsHost.Listen(81)
	if err != nil {
		panic(err)
	}
	srvAsync := httpx.NewServer(asyncEcho, httpx.ServerConfig{Clock: tb.clk})
	srvAsync.Start(lnAsync)
	tb.onClose(func() { srvAsync.Close() })

	// The full WS-Dispatcher (both modes + mailbox).
	wsd, err := core.New(core.Config{
		Clock:      tb.clk,
		HostName:   "wsd",
		Listen:     func(port int) (net.Listener, error) { return wsdHost.Listen(port) },
		Dialer:     wsdHost,
		RPCPort:    9000,
		MsgPort:    9100,
		MsgBoxPort: 9200,
		Policy:     registry.PolicyFirst,
		// Forwarded RPC waits and the anonymous-reply window use
		// their defaults: ~25s, under the 30s client budget.
		Msg: msgdisp.Config{DeliveryTimeout: 21 * time.Second},
	})
	if err != nil {
		panic(err)
	}
	wsd.Registry.Register("echo-rpc", "http://ws:80/")
	wsd.Registry.Register("echo-msg", "http://ws:81/msg")
	if err := wsd.Start(); err != nil {
		panic(err)
	}
	tb.onClose(wsd.Stop)

	httpCli := httpx.NewClient(cliHost, httpx.ClientConfig{Clock: tb.clk, RequestTimeout: 30 * time.Second})
	rpcCli := client.NewRPC(httpCli)
	const payload = "table1-probe"

	switch quadrant {
	case 1: // RPC client -> RPC service, RPC connection forwarded.
		results, err := rpcCli.Call("http://wsd:9000/rpc/echo-rpc",
			echoservice.EchoNS, echoservice.EchoOp,
			soap.Param{Name: "message", Value: payload})
		if err != nil {
			return false, fmt.Sprintf("RPC through dispatcher failed: %v", err)
		}
		return results[0].Value == payload, "echo returned on the forwarded connection"

	case 2: // RPC client -> messaging service: anonymous ReplyTo, the
		// caller blocks on its connection for the correlated reply.
		env := soap.New(soap.V11).SetBody(xmlsoap.NewText(echoservice.EchoNS, "echo", payload))
		(&wsa.Headers{
			To:        msgdisp.LogicalScheme + "echo-msg",
			Action:    echoservice.EchoNS + ":echo",
			MessageID: wsa.NewMessageID(),
			ReplyTo:   &wsa.EPR{Address: wsa.Anonymous},
		}).Apply(env)
		raw, merr := env.Marshal()
		if merr != nil {
			panic(merr)
		}
		req := httpx.NewRequest("POST", "/msg", raw)
		req.Header.Set("Content-Type", soap.V11.ContentType())
		resp, err := httpCli.Do("wsd:9100", req)
		if err != nil {
			return false, fmt.Sprintf("connection-bound wait failed: %v", err)
		}
		defer resp.Release()
		if resp.Status != httpx.StatusOK {
			return false, fmt.Sprintf("no reply within the RPC window (HTTP %d)", resp.Status)
		}
		got, perr := soap.Parse(resp.Body)
		if perr != nil {
			return false, perr.Error()
		}
		return got.BodyElement() != nil && got.BodyElement().Text == payload,
			"reply arrived on the held connection"

	case 3: // Messaging client -> RPC service: the dispatcher translates
		// semantics; the service's synchronous answer is bridged back
		// to the client's mailbox.
		return runMailboxConversation(tb, httpCli, rpcCli,
			msgdisp.LogicalScheme+"echo-rpc", payload, true)

	case 4: // Messaging client -> messaging service: the unlimited case.
		return runMailboxConversation(tb, httpCli, rpcCli,
			msgdisp.LogicalScheme+"echo-msg", payload, false)

	default:
		panic("unknown quadrant")
	}
}

// runMailboxConversation sends one message with a mailbox ReplyTo and
// polls for the correlated reply. rpcBridge marks quadrant 3, whose
// request body must be an RPC envelope.
func runMailboxConversation(tb *testbed, httpCli *httpx.Client, rpcCli *client.RPC, to, payload string, rpcBridge bool) (bool, string) {
	mboxCli := client.NewMailboxClient(rpcCli, "http://wsd:9200/mbox", tb.clk)
	box, err := mboxCli.Create()
	if err != nil {
		return false, fmt.Sprintf("mailbox create failed: %v", err)
	}
	var body *xmlsoap.Element
	if rpcBridge {
		body = xmlsoap.New(echoservice.EchoNS, echoservice.EchoOp).
			Add(xmlsoap.NewText("", "message", payload))
	} else {
		body = xmlsoap.NewText(echoservice.EchoNS, "echo", payload)
	}
	conv := &client.Conversation{
		Messenger:     client.NewMessenger(httpCli),
		Mailbox:       mboxCli,
		Box:           box,
		DispatcherURL: "http://wsd:9100/msg",
	}
	reply, err := conv.Call(to, echoservice.EchoNS+":echo", body, 3*time.Minute)
	if err != nil {
		return false, fmt.Sprintf("conversation failed: %v", err)
	}
	if rpcBridge {
		results, perr := soap.ParseRPCResponse(reply, echoservice.EchoOp)
		if perr != nil {
			return false, perr.Error()
		}
		return len(results) > 0 && results[0].Value == payload, "RPC result delivered to mailbox"
	}
	b := reply.BodyElement()
	return b != nil && b.Text == payload, "reply delivered to mailbox"
}

// FormatTable1 renders the matrix like the paper's Table 1, annotated
// with the measured outcomes.
func FormatTable1(cells []Table1Cell) string {
	var b strings.Builder
	b.WriteString("# Table 1 — Possible interactions between Web Service peers using WS-Dispatcher\n")
	b.WriteString("# quadrant  client            service            fast_service  slow_service  paper_verdict\n")
	for _, c := range cells {
		b.WriteString(fmt.Sprintf("%9d  %-17s %-18s %-13s %-13s %s\n",
			c.Quadrant, c.ClientStyle, c.ServiceStyle,
			okString(c.FastOK), okString(c.SlowOK), c.PaperVerdict))
	}
	return b.String()
}

func okString(ok bool) string {
	if ok {
		return "works"
	}
	return "FAILS"
}
