package experiments

import (
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/stats"
)

// Fig4Options parameterizes the Figure 4 reproduction: RPC echo over the
// "bad conditions" path (iuLow cable modem ↔ inriaSlow), direct vs through
// the RPC-Dispatcher, counting packets transmitted and packets not sent.
type Fig4Options struct {
	// Clients lists the x-axis points. Defaults to the paper's
	// {10, 100, 200, 500, 1000, 1500, 2000}.
	Clients []int
	// Duration is the per-point run length; the paper used one minute
	// of wall time, we use one minute of virtual time. Short runs
	// (e.g. 15s) preserve the shape for quick benchmarks.
	Duration time.Duration
	// Seed feeds the deterministic network.
	Seed int64
}

func (o Fig4Options) withDefaults() Fig4Options {
	if len(o.Clients) == 0 {
		o.Clients = []int{10, 100, 200, 500, 1000, 1500, 2000}
	}
	if o.Duration <= 0 {
		o.Duration = time.Minute
	}
	if o.Seed == 0 {
		o.Seed = 4
	}
	return o
}

// Fig4Row is one x-axis point: both series of the figure.
type Fig4Row struct {
	Clients    int
	Direct     stats.RunReport
	Dispatcher stats.RunReport
}

// RunFig4 regenerates Figure 4 ("RPC communication: low broadband").
func RunFig4(opt Fig4Options) []Fig4Row {
	opt = opt.withDefaults()
	rows := make([]Fig4Row, 0, len(opt.Clients))
	for _, n := range opt.Clients {
		row := Fig4Row{Clients: n}
		row.Direct = runFig4Point(opt, n, false)
		row.Dispatcher = runFig4Point(opt, n, true)
		rows = append(rows, row)
	}
	return rows
}

// runFig4Point measures one (clients, series) cell on a fresh testbed.
func runFig4Point(opt Fig4Options, clients int, viaDispatcher bool) stats.RunReport {
	tb := newTestbed(opt.Seed, coarseCoalesce)
	defer tb.Close()

	// The remote test client: the Bloomington cable modem. Plenty of
	// local sockets so the bottleneck is the wire and the server, as
	// in the paper.
	cliHost := tb.nw.AddHost("iulow", profileClientIULow(), netsim.WithMaxConns(8192))

	// inriaSlow runs the echo Web Service; its connection table is the
	// "limit somewhere between 100 and 500 concurrent connections".
	wsHost := tb.nw.AddHost("inriaslow", profileSite(), netsim.WithMaxConns(400))
	echo := echoservice.NewRPC(tb.clk, serviceTimeSlow)
	lnWS, err := wsHost.Listen(80)
	if err != nil {
		panic(err)
	}
	srvWS := httpx.NewServer(echo, httpx.ServerConfig{Clock: tb.clk})
	srvWS.Start(lnWS)
	tb.onClose(func() { srvWS.Close() })

	targetAddr, targetPath := "inriaslow:80", "/"
	if viaDispatcher {
		// The WS-Dispatcher in front of the web service, same site.
		// It needs two connections per in-flight call (client side +
		// service side), so its table is provisioned well above the
		// service's: the *service* stays the constrained resource,
		// as in the paper ("little negative impact on scalability").
		wsdHost := tb.nw.AddHost("wsd", profileSite(), netsim.WithMaxConns(8192))
		wsd, err := core.New(core.Config{
			Clock:    tb.clk,
			HostName: "wsd",
			Listen:   func(port int) (net.Listener, error) { return wsdHost.Listen(port) },
			Dialer:   wsdHost,
			RPCPort:  9000,
			Policy:   registry.PolicyFirst,
		})
		if err != nil {
			panic(err)
		}
		wsd.Registry.Register("echo", "http://inriaslow:80/")
		if err := wsd.Start(); err != nil {
			panic(err)
		}
		tb.onClose(wsd.Stop)
		targetAddr, targetPath = "wsd:9000", "/rpc/echo"
	}

	body := mustRPC(soap.AppendRPC(nil, soap.V11, echoservice.EchoNS, echoservice.EchoOp,
		soap.Param{Name: "message", Value: strings.Repeat("x", 64)}))

	// One HTTP client (one kept-alive connection) per simulated client,
	// like the paper's per-connection test threads. A request that
	// cannot complete in 10s counts as a packet not sent; failed
	// attempts retry after a short pacing delay.
	clientsPool := make([]*httpx.Client, clients)
	for i := range clientsPool {
		clientsPool[i] = httpx.NewClient(cliHost, httpx.ClientConfig{
			Clock:          tb.clk,
			RequestTimeout: 10 * time.Second,
			DialTimeout:    10 * time.Second,
			MaxIdlePerHost: 1,
		})
	}

	series := "Direct WS"
	if viaDispatcher {
		series = "Dispatcher"
	}
	return loadgen.Run(loadgen.Config{
		Clock:          tb.clk,
		Clients:        clients,
		Duration:       opt.Duration,
		FailureBackoff: 200 * time.Millisecond,
		Series:         series,
	}, func(clientID, seq int) error {
		req := httpx.NewRequest("POST", targetPath, body)
		req.Header.Set("Content-Type", soap.V11.ContentType())
		resp, err := clientsPool[clientID].Do(targetAddr, req)
		if err != nil {
			return err
		}
		status := resp.Status
		resp.Release()
		if status != httpx.StatusOK {
			return fmt.Errorf("HTTP %d", status)
		}
		return nil
	})
}

// FormatFig4 renders the rows like the paper's gnuplot data.
func FormatFig4(rows []Fig4Row) string {
	var b strings.Builder
	b.WriteString("# Figure 4 — RPC communication: low broadband (iuLow <-> inriaSlow)\n")
	b.WriteString("# clients  direct_transmitted  direct_not_sent  disp_transmitted  disp_not_sent\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7d %19d %16d %17d %14d\n",
			r.Clients, r.Direct.Transmitted, r.Direct.NotSent,
			r.Dispatcher.Transmitted, r.Dispatcher.NotSent)
	}
	return b.String()
}

func mustRPC(raw []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return raw
}
