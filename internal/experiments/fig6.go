package experiments

import (
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dispatch/msgdisp"
	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/loadgen"
	"repro/internal/msgbox"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/stats"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// Fig6Series selects one of the three asynchronous configurations.
type Fig6Series int

const (
	// SeriesOneWay sends directly to the Web Service; its replies to
	// the firewalled client are blocked ("One way (response blocked)
	// with WS-MSG").
	SeriesOneWay Fig6Series = iota
	// SeriesMsgDispatcher routes through the MSG-Dispatcher, replies
	// still aimed at the firewalled client ("With MSG-Dispatcher").
	SeriesMsgDispatcher
	// SeriesMsgBox routes through the MSG-Dispatcher with replies
	// delivered to a WS-MsgBox mailbox ("With MSG-D and MsgBox").
	SeriesMsgBox
)

func (s Fig6Series) String() string {
	switch s {
	case SeriesOneWay:
		return "One way (response blocked)"
	case SeriesMsgDispatcher:
		return "With MSG-Dispatcher"
	default:
		return "With MSG-D and MsgBox"
	}
}

// Fig6Options parameterizes the Figure 6 reproduction.
type Fig6Options struct {
	// Clients lists the x-axis points (paper: 0–50).
	Clients []int
	// Duration is the per-point run length (paper: one minute).
	Duration time.Duration
	// Seed feeds the deterministic network.
	Seed int64
}

func (o Fig6Options) withDefaults() Fig6Options {
	if len(o.Clients) == 0 {
		o.Clients = []int{1, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50}
	}
	if o.Duration <= 0 {
		o.Duration = time.Minute
	}
	if o.Seed == 0 {
		o.Seed = 6
	}
	return o
}

// Fig6Row is one x-axis point: all three series.
type Fig6Row struct {
	Clients       int
	OneWay        stats.RunReport
	MsgDispatcher stats.RunReport
	MsgBox        stats.RunReport
}

// RunFig6 regenerates Figure 6 ("Asynchronous communication").
func RunFig6(opt Fig6Options) []Fig6Row {
	opt = opt.withDefaults()
	rows := make([]Fig6Row, 0, len(opt.Clients))
	for _, n := range opt.Clients {
		rows = append(rows, Fig6Row{
			Clients:       n,
			OneWay:        RunFig6Point(opt, n, SeriesOneWay),
			MsgDispatcher: RunFig6Point(opt, n, SeriesMsgDispatcher),
			MsgBox:        RunFig6Point(opt, n, SeriesMsgBox),
		})
	}
	return rows
}

// RunFig6Point measures one (clients, series) cell on a fresh testbed.
func RunFig6Point(opt Fig6Options, clients int, series Fig6Series) stats.RunReport {
	opt = opt.withDefaults()
	tb := newTestbed(opt.Seed, fineCoalesce)
	defer tb.Close()

	// The test clients sit behind an institutional firewall that only
	// allows outgoing connections — the paper's INRIA situation.
	cliHost := tb.nw.AddHost("client", profileClientIUHigh(),
		netsim.WithFirewall(netsim.OutboundOnly()), netsim.WithMaxConns(8192))

	// The message-style echo Web Service. Its reply workers are a
	// bounded pool (a 2004 servlet container); replies to the
	// firewalled client hold a worker for the full connect timeout.
	wsHost := tb.nw.AddHost("ws", profileSite(), netsim.WithMaxConns(2048))
	wsClient := httpx.NewClient(wsHost, httpx.ClientConfig{Clock: tb.clk})
	echo := echoservice.NewAsync(tb.clk, wsClient, 2*time.Millisecond)
	echo.OwnAddress = "http://ws:81/msg"
	echo.ReplyTimeout = 21 * time.Second
	if err := echo.LimitReplies(256, 256); err != nil {
		panic(err)
	}
	tb.onClose(echo.Close)
	lnWS, err := wsHost.Listen(81)
	if err != nil {
		panic(err)
	}
	srvWS := httpx.NewServer(echo, httpx.ServerConfig{Clock: tb.clk})
	srvWS.Start(lnWS)
	tb.onClose(func() { srvWS.Close() })

	// Dispatcher + mailbox site services (used by two of the series).
	var wsd *core.Server
	if series != SeriesOneWay {
		wsdHost := tb.nw.AddHost("wsd", profileSite(), netsim.WithMaxConns(4096))
		wsd, err = core.New(core.Config{
			Clock:      tb.clk,
			HostName:   "wsd",
			Listen:     func(port int) (net.Listener, error) { return wsdHost.Listen(port) },
			Dialer:     wsdHost,
			MsgPort:    9100,
			MsgBoxPort: 9200,
			Policy:     registry.PolicyFirst,
			MsgBox:     msgbox.Config{BoxCap: 1 << 20},
			// A 2004-scale dispatcher buffer: when reply deliveries
			// to firewalled clients stall the WsThreads, queues fill
			// and new sends bounce — the paper's slowest series.
			Msg: msgdisp.Config{QueueCap: 256},
		})
		if err != nil {
			panic(err)
		}
		wsd.Registry.Register("echo", "http://ws:81/msg")
		if err := wsd.Start(); err != nil {
			panic(err)
		}
		tb.onClose(wsd.Stop)
	}

	// Reply destinations per client.
	replyAddrs := make([]string, clients)
	switch series {
	case SeriesMsgBox:
		// One mailbox per client, created over RPC before the run.
		adminClient := httpx.NewClient(cliHost, httpx.ClientConfig{Clock: tb.clk})
		for i := range replyAddrs {
			replyAddrs[i] = createMailbox(tb, adminClient)
		}
	default:
		// The client's own (firewalled, unreachable) endpoint.
		for i := range replyAddrs {
			replyAddrs[i] = fmt.Sprintf("http://client:%d/msg", 9000+i)
		}
	}

	// Target of the sends.
	targetAddr, targetPath := "ws:81", "/msg"
	toHeader := "http://ws:81/msg"
	if series != SeriesOneWay {
		targetAddr, targetPath = "wsd:9100", "/msg"
		toHeader = "logical:echo"
	}

	clientsPool := make([]*httpx.Client, clients)
	for i := range clientsPool {
		clientsPool[i] = httpx.NewClient(cliHost, httpx.ClientConfig{
			Clock:          tb.clk,
			RequestTimeout: 10 * time.Second,
			MaxIdlePerHost: 1,
		})
	}

	return loadgen.Run(loadgen.Config{
		Clock:   tb.clk,
		Clients: clients,
		// 500ms think time: the per-thread pacing of the test client.
		ThinkTime: 500 * time.Millisecond,
		Duration:  opt.Duration,
		Series:    series.String(),
	}, func(clientID, seq int) error {
		env := soap.New(soap.V11).SetBody(
			xmlsoap.NewText(echoservice.EchoNS, "echo", fmt.Sprintf("m-%d-%d", clientID, seq)))
		(&wsa.Headers{
			To:        toHeader,
			Action:    echoservice.EchoNS + ":echo",
			MessageID: fmt.Sprintf("urn:fig6:%d:%d", clientID, seq),
			ReplyTo:   &wsa.EPR{Address: replyAddrs[clientID]},
		}).Apply(env)
		buf := xmlsoap.GetBuffer()
		defer xmlsoap.PutBuffer(buf)
		raw, err := wsa.AppendEnvelope(buf.B, env)
		if err != nil {
			return err
		}
		buf.B = raw
		req := httpx.NewRequest("POST", targetPath, raw)
		req.Header.Set("Content-Type", soap.V11.ContentType())
		resp, err := clientsPool[clientID].Do(targetAddr, req)
		if err != nil {
			return err
		}
		status := resp.Status
		resp.Release()
		if status != httpx.StatusAccepted && status != httpx.StatusOK {
			return fmt.Errorf("HTTP %d", status)
		}
		return nil
	})
}

// createMailbox provisions one mailbox over the management RPC and
// returns its delivery address.
func createMailbox(tb *testbed, client *httpx.Client) string {
	body := mustRPC(soap.AppendRPC(nil, soap.V11, msgbox.ServiceNS, msgbox.OpCreate))
	req := httpx.NewRequest("POST", "/mbox", body)
	req.Header.Set("Content-Type", soap.V11.ContentType())
	resp, err := client.Do("wsd:9200", req)
	if err != nil {
		panic(fmt.Sprintf("fig6: mailbox create: %v", err))
	}
	defer resp.Release()
	results, err := soap.DecodeRPCResponse(resp.Body, msgbox.OpCreate, nil)
	if err != nil {
		panic(err)
	}
	for _, p := range results {
		if p.Name == "address" {
			// The param aliases the pooled response body; the address
			// outlives this exchange (it is every message's ReplyTo).
			return strings.Clone(p.Value)
		}
	}
	panic("fig6: mailbox create returned no address")
}

// FormatFig6 renders the rows like the paper's plot data.
func FormatFig6(rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString("# Figure 6 — Asynchronous communication (firewalled clients)\n")
	b.WriteString("# clients  oneway_msg_per_min  msgdisp_msg_per_min  msgbox_msg_per_min\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7d %19.0f %20.0f %19.0f\n",
			r.Clients, r.OneWay.PerMinute(), r.MsgDispatcher.PerMinute(), r.MsgBox.PerMinute())
	}
	return b.String()
}
