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

// Fig5Options parameterizes the Figure 5 reproduction: RPC echo in "good
// conditions" (IU backbone ↔ inriaFast), messages/minute vs clients,
// direct vs through the RPC-Dispatcher.
type Fig5Options struct {
	// Clients lists the x-axis points (paper: 0–300).
	Clients []int
	// Duration is the per-point run length (paper: one minute).
	Duration time.Duration
	// Seed feeds the deterministic network.
	Seed int64
}

func (o Fig5Options) withDefaults() Fig5Options {
	if len(o.Clients) == 0 {
		o.Clients = []int{10, 25, 50, 100, 150, 200, 250, 300}
	}
	if o.Duration <= 0 {
		o.Duration = time.Minute
	}
	if o.Seed == 0 {
		o.Seed = 5
	}
	return o
}

// Fig5Row is one x-axis point of Figure 5.
type Fig5Row struct {
	Clients    int
	Direct     stats.RunReport
	Dispatcher stats.RunReport
}

// RunFig5 regenerates Figure 5 ("RPC communication: hight connectivity").
func RunFig5(opt Fig5Options) []Fig5Row {
	opt = opt.withDefaults()
	rows := make([]Fig5Row, 0, len(opt.Clients))
	for _, n := range opt.Clients {
		row := Fig5Row{Clients: n}
		row.Direct = runFig5Point(opt, n, false)
		row.Dispatcher = runFig5Point(opt, n, true)
		rows = append(rows, row)
	}
	return rows
}

func runFig5Point(opt Fig5Options, clients int, viaDispatcher bool) stats.RunReport {
	tb := newTestbed(opt.Seed, coarseCoalesce)
	defer tb.Close()

	// The IU backbone test host: plenty of bandwidth, trans-Atlantic
	// latency, ample sockets.
	cliHost := tb.nw.AddHost("iuhigh", profileClientIUHigh(), netsim.WithMaxConns(8192))

	// inriaFast: one modeled CPU (MaxHandlers 1) at 10ms per call caps
	// the service at ~100 calls/s ≈ 6000 messages/minute — the plateau
	// the paper reaches after ~200 clients.
	wsHost := tb.nw.AddHost("inriafast", profileSite(), netsim.WithMaxConns(2048))
	echo := echoservice.NewRPC(tb.clk, serviceTimeFast)
	lnWS, err := wsHost.Listen(80)
	if err != nil {
		panic(err)
	}
	srvWS := httpx.NewServer(echo, httpx.ServerConfig{Clock: tb.clk, MaxHandlers: 1})
	srvWS.Start(lnWS)
	tb.onClose(func() { srvWS.Close() })

	targetAddr, targetPath := "inriafast:80", "/"
	if viaDispatcher {
		wsdHost := tb.nw.AddHost("wsd", profileSite(), netsim.WithMaxConns(4096))
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
		wsd.Registry.Register("echo", "http://inriafast:80/")
		if err := wsd.Start(); err != nil {
			panic(err)
		}
		tb.onClose(wsd.Stop)
		targetAddr, targetPath = "wsd:9000", "/rpc/echo"
	}

	body := mustRPC(soap.AppendRPC(nil, soap.V11, echoservice.EchoNS, echoservice.EchoOp,
		soap.Param{Name: "message", Value: strings.Repeat("x", 64)}))

	clientsPool := make([]*httpx.Client, clients)
	for i := range clientsPool {
		clientsPool[i] = httpx.NewClient(cliHost, httpx.ClientConfig{
			Clock:          tb.clk,
			RequestTimeout: 30 * time.Second,
			MaxIdlePerHost: 1,
		})
	}

	series := "Direct WS-RPC"
	if viaDispatcher {
		series = "With RPC-Dispatcher"
	}
	return loadgen.Run(loadgen.Config{
		Clock:   tb.clk,
		Clients: clients,
		// The 2s think time models the paper's test machine running
		// hundreds of client threads on one CPU: per-client rate is
		// low, so aggregate throughput keeps rising until ~200
		// clients where the service CPU saturates.
		ThinkTime: 2 * time.Second,
		Duration:  opt.Duration,
		Series:    series,
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

// FormatFig5 renders the rows like the paper's plot data.
func FormatFig5(rows []Fig5Row) string {
	var b strings.Builder
	b.WriteString("# Figure 5 — RPC communication: hight connectivity (iuHigh <-> inriaFast)\n")
	b.WriteString("# clients  direct_msg_per_min  dispatcher_msg_per_min  direct_lost  disp_lost\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7d %19.0f %23.0f %12d %10d\n",
			r.Clients, r.Direct.PerMinute(), r.Dispatcher.PerMinute(),
			r.Direct.NotSent, r.Dispatcher.NotSent)
	}
	return b.String()
}
