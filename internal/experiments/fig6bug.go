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
	"repro/internal/msgbox"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/stats"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// Fig6BugOptions parameterizes the §4.3.2 bug reproduction: "The result
// of tests for more than 50 clients revealed a very serious bug in the
// WS-MsgBox implementation ... creates a new thread for each message ...
// leads to OutOfMemoryExceptions as each thread has local stack allocated
// in memory."
type Fig6BugOptions struct {
	// Clients lists the swept client counts. Defaults cross the
	// paper's ~50-client cliff.
	Clients []int
	// Duration is the per-point run length.
	Duration time.Duration
	// ThreadBudget is the modeled JVM thread capacity of the mailbox
	// host. Default 220 threads (512 KiB stacks in a 110 MiB budget).
	ThreadBudget int
	// ThreadLinger is how long each buggy thread lives. Default 2s.
	ThreadLinger time.Duration
	// Seed feeds the deterministic network.
	Seed int64
}

func (o Fig6BugOptions) withDefaults() Fig6BugOptions {
	if len(o.Clients) == 0 {
		o.Clients = []int{10, 20, 30, 40, 50, 60, 70, 80}
	}
	if o.Duration <= 0 {
		o.Duration = time.Minute
	}
	if o.ThreadBudget <= 0 {
		o.ThreadBudget = 220
	}
	if o.ThreadLinger <= 0 {
		o.ThreadLinger = 2 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 66
	}
	return o
}

// Fig6BugRow compares the buggy (thread-per-message) and fixed (the
// shipping, park-before-202) WS-MsgBox under the same load.
type Fig6BugRow struct {
	Clients int
	// Buggy / Fixed are the client-side send reports.
	Buggy stats.RunReport
	Fixed stats.RunReport
	// BuggyOOMs counts OutOfMemoryError events at the mailbox;
	// BuggyPeakThreads is the thread high-water mark.
	BuggyOOMs        int64
	BuggyPeakThreads int64
	// BuggyStored / FixedStored count messages actually retained.
	BuggyStored int64
	FixedStored int64
}

// RunFig6Bug regenerates the WS-MsgBox scalability-bug narrative.
func RunFig6Bug(opt Fig6BugOptions) []Fig6BugRow {
	opt = opt.withDefaults()
	rows := make([]Fig6BugRow, 0, len(opt.Clients))
	for _, n := range opt.Clients {
		row := Fig6BugRow{Clients: n}
		var buggySvc, fixedSvc *msgbox.Service
		var threads *ledger
		row.Buggy, buggySvc, threads = runFig6BugPoint(opt, n, true)
		row.Fixed, fixedSvc, _ = runFig6BugPoint(opt, n, false)
		row.BuggyOOMs = int64(threads.OOMEvents())
		row.BuggyPeakThreads = int64(threads.Peak())
		row.BuggyStored = buggySvc.Stored.Value()
		row.FixedStored = fixedSvc.Stored.Value()
		rows = append(rows, row)
	}
	return rows
}

// runFig6BugPoint drives the MSG-D + MsgBox topology of Figure 6, with
// the mailbox behind the thread-per-message front when buggy, and returns
// the client report, the mailbox service for its counters and the
// buggy front's thread ledger (nil when fixed).
func runFig6BugPoint(opt Fig6BugOptions, clients int, buggy bool) (stats.RunReport, *msgbox.Service, *ledger) {
	tb := newTestbed(opt.Seed, fineCoalesce)
	defer tb.Close()

	cliHost := tb.nw.AddHost("client", profileClientIUHigh(),
		netsim.WithFirewall(netsim.OutboundOnly()), netsim.WithMaxConns(8192))

	wsHost := tb.nw.AddHost("ws", profileSite(), netsim.WithMaxConns(2048))
	wsClient := httpx.NewClient(wsHost, httpx.ClientConfig{Clock: tb.clk})
	echo := echoservice.NewAsync(tb.clk, wsClient, 2*time.Millisecond)
	echo.OwnAddress = "http://ws:81/msg"
	lnWS, err := wsHost.Listen(81)
	if err != nil {
		panic(err)
	}
	srvWS := httpx.NewServer(echo, httpx.ServerConfig{Clock: tb.clk})
	srvWS.Start(lnWS)
	tb.onClose(func() { srvWS.Close() })

	wsdHost := tb.nw.AddHost("wsd", profileSite(), netsim.WithMaxConns(4096))
	wsd, err := core.New(core.Config{
		Clock:    tb.clk,
		HostName: "wsd",
		Listen:   func(port int) (net.Listener, error) { return wsdHost.Listen(port) },
		Dialer:   wsdHost,
		MsgPort:  9100,
		Policy:   registry.PolicyFirst,
	})
	if err != nil {
		panic(err)
	}
	wsd.Registry.Register("echo", "http://ws:81/msg")
	if err := wsd.Start(); err != nil {
		panic(err)
	}
	tb.onClose(wsd.Stop)

	// The co-located mailbox, served here rather than by core so the
	// buggy point can put its thread-per-message front before it.
	mbox := msgbox.New(msgbox.Config{Clock: tb.clk, BaseURL: "http://wsd:9200", BoxCap: 1 << 20})
	if err := mbox.Start(); err != nil {
		panic(err)
	}
	tb.onClose(mbox.Stop)
	var h httpx.Handler = mbox
	var threads *ledger
	if buggy {
		threads = newLedger(opt.ThreadBudget)
		h = threadPerMessage(mbox, threads, tb.clk, opt.ThreadLinger)
	}
	lnMbox, err := wsdHost.Listen(9200)
	if err != nil {
		panic(err)
	}
	srvMbox := httpx.NewServer(h, httpx.ServerConfig{Clock: tb.clk})
	srvMbox.Start(lnMbox)
	tb.onClose(func() { srvMbox.Close() })

	adminClient := httpx.NewClient(cliHost, httpx.ClientConfig{Clock: tb.clk})
	replyAddrs := make([]string, clients)
	for i := range replyAddrs {
		replyAddrs[i] = createMailbox(tb, adminClient)
	}

	clientsPool := make([]*httpx.Client, clients)
	for i := range clientsPool {
		clientsPool[i] = httpx.NewClient(cliHost, httpx.ClientConfig{
			Clock:          tb.clk,
			RequestTimeout: 10 * time.Second,
			MaxIdlePerHost: 1,
		})
	}

	report := loadgen.Run(loadgen.Config{
		Clock:     tb.clk,
		Clients:   clients,
		ThinkTime: 500 * time.Millisecond,
		Duration:  opt.Duration,
		Series:    fmt.Sprintf("msgbox-%v", buggy),
	}, func(clientID, seq int) error {
		env := soap.New(soap.V11).SetBody(
			xmlsoap.NewText(echoservice.EchoNS, "echo", "bug-probe"))
		(&wsa.Headers{
			To:        "logical:echo",
			Action:    echoservice.EchoNS + ":echo",
			MessageID: fmt.Sprintf("urn:fig6bug:%d:%d", clientID, seq),
			ReplyTo:   &wsa.EPR{Address: replyAddrs[clientID]},
		}).Apply(env)
		buf := xmlsoap.GetBuffer()
		defer xmlsoap.PutBuffer(buf)
		raw, err := wsa.AppendEnvelope(buf.B, env)
		if err != nil {
			return err
		}
		buf.B = raw
		req := httpx.NewRequest("POST", "/msg", raw)
		req.Header.Set("Content-Type", soap.V11.ContentType())
		resp, err := clientsPool[clientID].Do("wsd:9100", req)
		if err != nil {
			return err
		}
		status := resp.Status
		resp.Release()
		if status != httpx.StatusAccepted {
			return fmt.Errorf("HTTP %d", status)
		}
		return nil
	})
	return report, mbox, threads
}

// FormatFig6Bug renders the sweep.
func FormatFig6Bug(rows []Fig6BugRow) string {
	var b strings.Builder
	b.WriteString("# §4.3.2 — WS-MsgBox thread-per-message bug vs bounded-pool redesign\n")
	b.WriteString("# clients  buggy_stored  buggy_ooms  buggy_peak_threads  fixed_stored  fixed_ooms\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%7d %13d %11d %19d %13d %10d\n",
			r.Clients, r.BuggyStored, r.BuggyOOMs, r.BuggyPeakThreads, r.FixedStored, 0)
	}
	return b.String()
}
