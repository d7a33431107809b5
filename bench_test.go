// Package repro_test is the benchmark harness: one benchmark per table
// and figure in the paper's evaluation (§4.3), plus ablations for the
// design choices DESIGN.md calls out.
//
// Each benchmark iteration replays a scaled-down (shorter virtual
// duration) version of the corresponding experiment on the simulated
// trans-Atlantic testbed and reports the figure's headline metrics via
// b.ReportMetric. Full-length runs — the paper's one-minute points — are
// produced by cmd/experiments.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dispatch/msgdisp"
	"repro/internal/echoservice"
	"repro/internal/experiments"
	"repro/internal/httpx"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// benchDuration is the virtual run length per data point: long enough for
// steady state, short enough to keep the full bench suite fast.
const benchDuration = 10 * time.Second

// BenchmarkTable1 exercises all four interaction quadrants (fast and slow
// service variants) and reports how many of the eight cells behave as the
// paper's Table 1 says they should.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells := experiments.RunTable1(experiments.Table1Options{})
		asPaper := 0
		for _, c := range cells {
			switch c.Quadrant {
			case 1, 2, 3:
				if c.FastOK && !c.SlowOK {
					asPaper++
				}
			case 4:
				if c.FastOK && c.SlowOK {
					asPaper++
				}
			}
		}
		b.ReportMetric(float64(asPaper), "quadrants-as-paper")
	}
}

// BenchmarkFig4 replays Figure 4 (RPC over the cable modem) at selected
// client counts and reports transmitted / not-sent per minute.
func BenchmarkFig4(b *testing.B) {
	for _, clients := range []int{10, 200, 1000} {
		for _, series := range []string{"direct", "dispatcher"} {
			b.Run(fmt.Sprintf("clients=%d/%s", clients, series), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows := experiments.RunFig4(experiments.Fig4Options{
						Clients:  []int{clients},
						Duration: benchDuration,
					})
					r := rows[0].Direct
					if series == "dispatcher" {
						r = rows[0].Dispatcher
					}
					b.ReportMetric(r.PerMinute(), "transmitted/min")
					b.ReportMetric(float64(r.NotSent)/r.Elapsed.Minutes(), "not-sent/min")
				}
			})
		}
	}
}

// BenchmarkFig5 replays Figure 5 (RPC in good conditions).
func BenchmarkFig5(b *testing.B) {
	for _, clients := range []int{25, 200, 300} {
		for _, series := range []string{"direct", "dispatcher"} {
			b.Run(fmt.Sprintf("clients=%d/%s", clients, series), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rows := experiments.RunFig5(experiments.Fig5Options{
						Clients:  []int{clients},
						Duration: benchDuration,
					})
					r := rows[0].Direct
					if series == "dispatcher" {
						r = rows[0].Dispatcher
					}
					b.ReportMetric(r.PerMinute(), "msg/min")
					b.ReportMetric(float64(r.NotSent), "lost")
				}
			})
		}
	}
}

// BenchmarkFig6 replays Figure 6 (asynchronous messaging, firewalled
// clients) for each of the paper's three configurations.
func BenchmarkFig6(b *testing.B) {
	series := map[string]experiments.Fig6Series{
		"oneway":  experiments.SeriesOneWay,
		"msgdisp": experiments.SeriesMsgDispatcher,
		"msgbox":  experiments.SeriesMsgBox,
	}
	for _, clients := range []int{5, 25, 50} {
		for name, s := range series {
			b.Run(fmt.Sprintf("clients=%d/%s", clients, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r := experiments.RunFig6Point(experiments.Fig6Options{
						Duration: benchDuration,
					}, clients, s)
					b.ReportMetric(r.PerMinute(), "msg/min")
				}
			})
		}
	}
}

// BenchmarkFig6Bug replays the §4.3.2 WS-MsgBox thread explosion on both
// sides of the cliff.
func BenchmarkFig6Bug(b *testing.B) {
	for _, clients := range []int{20, 80} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows := experiments.RunFig6Bug(experiments.Fig6BugOptions{
					Clients:  []int{clients},
					Duration: benchDuration,
				})
				b.ReportMetric(float64(rows[0].BuggyOOMs), "buggy-ooms")
				b.ReportMetric(float64(rows[0].BuggyPeakThreads), "buggy-peak-threads")
				b.ReportMetric(float64(rows[0].FixedStored), "fixed-stored")
			}
		})
	}
}

// --- ablations ---

// msgBenchRig is a small MSG-Dispatcher topology for ablation studies: an
// open client, the dispatcher (built directly so the delivery transport is
// controllable), and several async echo sinks on hosts with enough latency
// that connection setup and per-destination serialization are visible.
type msgBenchRig struct {
	clk  *clock.Virtual
	disp *msgdisp.Dispatcher
	send func(dest, seq int) error
	stop func()
}

type msgBenchOptions struct {
	holdOpen    time.Duration
	wsWorkers   int
	keepAlive   bool // false = new connection per delivery
	numDests    int
	destLatency time.Duration
}

func newMsgBenchRig(b *testing.B, opt msgBenchOptions) *msgBenchRig {
	b.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	clk.SetCoalesce(200 * time.Microsecond)
	nw := netsim.New(clk, 9)
	cli := nw.AddHost("cli", netsim.ProfileLAN())
	wsd := nw.AddHost("wsd", netsim.ProfileLAN())

	var stops []func()
	reg := registry.New(registry.PolicyFirst, clk)
	for i := 0; i < opt.numDests; i++ {
		name := fmt.Sprintf("ws%d", i)
		host := nw.AddHost(name, netsim.Profile{
			DownKbps: 50_000, UpKbps: 50_000, Latency: opt.destLatency,
		})
		wsHTTP := httpx.NewClient(host, httpx.ClientConfig{Clock: clk})
		echo := echoservice.NewAsync(clk, wsHTTP, time.Millisecond)
		ln, err := host.Listen(81)
		if err != nil {
			b.Fatal(err)
		}
		srv := httpx.NewServer(echo, httpx.ServerConfig{Clock: clk})
		srv.Start(ln)
		stops = append(stops, func() { srv.Close() })
		reg.Register(fmt.Sprintf("echo%d", i), fmt.Sprintf("http://%s:81/msg", name))
	}

	deliveryClient := httpx.NewClient(wsd, httpx.ClientConfig{
		Clock:            clk,
		DisableKeepAlive: !opt.keepAlive,
	})
	disp := msgdisp.New(reg, deliveryClient, msgdisp.Config{
		Clock:         clk,
		ReturnAddress: "http://wsd:9100/msg",
		HoldOpen:      opt.holdOpen,
		WsWorkers:     opt.wsWorkers,
	})
	if err := disp.Start(); err != nil {
		b.Fatal(err)
	}
	lnD, err := wsd.Listen(9100)
	if err != nil {
		b.Fatal(err)
	}
	srvD := httpx.NewServer(disp, httpx.ServerConfig{Clock: clk})
	srvD.Start(lnD)

	httpCli := httpx.NewClient(cli, httpx.ClientConfig{Clock: clk, RequestTimeout: 60 * time.Second})
	send := func(dest, seq int) error {
		env := soap.New(soap.V11).SetBody(xmlsoap.NewText(echoservice.EchoNS, "echo", "ablate"))
		(&wsa.Headers{
			To:        fmt.Sprintf("%secho%d", msgdisp.LogicalScheme, dest),
			MessageID: fmt.Sprintf("urn:bench:%d:%d", dest, seq),
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
		if status != httpx.StatusAccepted {
			return fmt.Errorf("HTTP %d", status)
		}
		return nil
	}
	return &msgBenchRig{
		clk:  clk,
		disp: disp,
		send: send,
		stop: func() {
			srvD.Close()
			disp.Stop()
			for _, s := range stops {
				s()
			}
			clk.Stop()
		},
	}
}

// runBurst pushes count messages (round-robin across destinations) into
// the dispatcher and returns the virtual time until all are delivered.
func (rig *msgBenchRig) runBurst(b *testing.B, count, dests int) time.Duration {
	b.Helper()
	start := rig.clk.Now()
	for seq := 0; seq < count; seq++ {
		if err := rig.send(seq%dests, seq); err != nil {
			b.Fatal(err)
		}
	}
	for rig.disp.ForwardedToWS.Value() < int64(count) {
		rig.clk.Sleep(5 * time.Millisecond)
	}
	return rig.clk.Since(start)
}

// runSaturationPoint replays one loadgen point against a fresh topology:
// clients anonymous-RPC callers ramping through the MSG-Dispatcher at a
// farm of backends registered under one logical name. With kill set, the
// first backend's server is closed a third of the way in; MarkDeadOnError
// lets delivery failures fail the endpoint over to the survivors.
func runSaturationPoint(b *testing.B, clients, backends int, kill bool) (loadReport, time.Duration) {
	b.Helper()
	clk := clock.NewVirtual(time.Unix(0, 0))
	defer clk.Stop()
	clk.SetCoalesce(200 * time.Microsecond)
	nw := netsim.New(clk, 17)
	cli := nw.AddHost("cli", netsim.ProfileLAN())
	wsd := nw.AddHost("wsd", netsim.ProfileLAN())

	var urls []string
	var backendSrvs []*httpx.Server
	for i := 0; i < backends; i++ {
		name := fmt.Sprintf("ws%d", i)
		host := nw.AddHost(name, netsim.ProfileLAN())
		ln, err := host.Listen(80)
		if err != nil {
			b.Fatal(err)
		}
		srv := httpx.NewServer(echoservice.NewRPC(clk, time.Millisecond), httpx.ServerConfig{Clock: clk})
		srv.Start(ln)
		backendSrvs = append(backendSrvs, srv)
		urls = append(urls, fmt.Sprintf("http://%s:80/", name))
	}
	reg := registry.New(registry.PolicyRoundRobin, clk)
	reg.Register("echo", urls...)

	disp := msgdisp.New(reg, httpx.NewClient(wsd, httpx.ClientConfig{Clock: clk}), msgdisp.Config{
		Clock:           clk,
		ReturnAddress:   "http://wsd:9100/msg",
		AnonymousWait:   2 * time.Second,
		DeliveryTimeout: 2 * time.Second,
		HoldOpen:        time.Second,
		CxWorkers:       128,
		WsWorkers:       64,
		MarkDeadOnError: true,
	})
	if err := disp.Start(); err != nil {
		b.Fatal(err)
	}
	defer disp.Stop()
	lnD, err := wsd.Listen(9100)
	if err != nil {
		b.Fatal(err)
	}
	srvD := httpx.NewServer(disp, httpx.ServerConfig{Clock: clk})
	srvD.Start(lnD)
	defer srvD.Close()
	for _, s := range backendSrvs {
		defer s.Close()
	}

	httpCli := httpx.NewClient(cli, httpx.ClientConfig{Clock: clk, RequestTimeout: 10 * time.Second})
	defer httpCli.Close()
	op := func(id, seq int) error {
		env := soap.New(soap.V11).SetBody(xmlsoap.New(echoservice.EchoNS, echoservice.EchoOp).Add(xmlsoap.NewText("", "message", "ramp")))
		(&wsa.Headers{
			To:        msgdisp.LogicalScheme + "echo",
			Action:    echoservice.EchoNS + ":" + echoservice.EchoOp,
			MessageID: fmt.Sprintf("urn:ramp:%d:%d", id, seq),
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

	if kill {
		go func() {
			clk.Sleep(benchDuration / 3)
			backendSrvs[0].Close()
		}()
	}
	wallStart := time.Now()
	rep := loadgen.Run(loadgen.Config{
		Clock:     clk,
		Clients:   clients,
		Duration:  benchDuration,
		ThinkTime: 50 * time.Millisecond,
		Series:    "ramp",
	}, op)
	return loadReport{perMinute: rep.PerMinute(), notSent: rep.NotSent}, time.Since(wallStart)
}

// loadReport is the slice of stats.RunReport the ramp reports on.
type loadReport struct {
	perMinute float64
	notSent   int64
}

// BenchmarkSaturationRamp ramps loadgen client counts through the
// MSG-Dispatcher to the saturation knee in two configurations: one
// backend, and a two-backend farm absorbing a mid-run backend kill.
// Virtual-clock msg/min measures modeled capacity (identical network,
// so the configurations separate only at the knee); wall-ms is the real
// time the dispatcher needed to push the same virtual minute.
func BenchmarkSaturationRamp(b *testing.B) {
	cases := []struct {
		name     string
		backends int
		kill     bool
	}{
		{"sharded/one-backend", 1, false},
		{"sharded/two-backends-kill", 2, true},
	}
	for _, tc := range cases {
		for _, clients := range []int{25, 100, 300} {
			b.Run(fmt.Sprintf("%s/clients=%d", tc.name, clients), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					rep, wall := runSaturationPoint(b, clients, tc.backends, tc.kill)
					b.ReportMetric(rep.perMinute, "msg/min")
					b.ReportMetric(float64(rep.notSent), "not-sent")
					b.ReportMetric(float64(wall.Milliseconds()), "wall-ms")
				}
			})
		}
	}
}

// BenchmarkAblationHoldOpen compares held-open delivery connections
// (paper's design: "multiple messages can be delivered to a destination
// over one connection which is more efficient than opening multiple short
// lived connections") against a fresh connection per delivery. The metric
// is virtual milliseconds to deliver a 200-message burst to one
// destination 10ms away.
func BenchmarkAblationHoldOpen(b *testing.B) {
	cases := []struct {
		name      string
		keepAlive bool
	}{
		{"held-connection", true},
		{"connection-per-message", false},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rig := newMsgBenchRig(b, msgBenchOptions{
					holdOpen:    5 * time.Second,
					wsWorkers:   16,
					keepAlive:   tc.keepAlive,
					numDests:    1,
					destLatency: 5 * time.Millisecond,
				})
				elapsed := rig.runBurst(b, 200, 1)
				b.ReportMetric(float64(elapsed.Milliseconds()), "virtual-ms")
				rig.stop()
			}
		})
	}
}

// BenchmarkAblationPoolSizes sweeps the WsThread pool bound with traffic
// fanned across 8 destinations: a single shared worker serializes all
// queues, a bigger pool lets destinations progress in parallel.
func BenchmarkAblationPoolSizes(b *testing.B) {
	for _, wst := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("ws-workers=%d", wst), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rig := newMsgBenchRig(b, msgBenchOptions{
					holdOpen:    5 * time.Second,
					wsWorkers:   wst,
					keepAlive:   true,
					numDests:    8,
					destLatency: 5 * time.Millisecond,
				})
				elapsed := rig.runBurst(b, 160, 8)
				b.ReportMetric(float64(elapsed.Milliseconds()), "virtual-ms")
				rig.stop()
			}
		})
	}
}

// BenchmarkAblationRegistry measures the registry's hot-path Resolve under
// each balancing policy (the dispatcher consults it once per message).
func BenchmarkAblationRegistry(b *testing.B) {
	for _, tc := range []struct {
		name   string
		policy registry.Policy
	}{
		{"first", registry.PolicyFirst},
		{"round-robin", registry.PolicyRoundRobin},
		{"least-pending", registry.PolicyLeastPending},
	} {
		b.Run(tc.name, func(b *testing.B) {
			reg := registry.New(tc.policy, clock.Wall)
			for s := 0; s < 64; s++ {
				reg.Register(fmt.Sprintf("svc%d", s),
					fmt.Sprintf("http://a%d:80/", s), fmt.Sprintf("http://b%d:80/", s))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reg.Resolve(fmt.Sprintf("svc%d", i%64)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSOAPCodec measures envelope marshal/parse — the per-message
// XML cost every hop pays (XSUL's wrapping/unwrapping).
func BenchmarkSOAPCodec(b *testing.B) {
	env := soap.New(soap.V11).SetBody(xmlsoap.NewText(echoservice.EchoNS, "echo", "payload"))
	(&wsa.Headers{
		To:        "logical:echo",
		Action:    "urn:echo",
		MessageID: wsa.NewMessageID(),
		ReplyTo:   &wsa.EPR{Address: "http://client:90/msg"},
	}).Apply(env)
	raw, err := env.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := env.Marshal(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := soap.Parse(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(len(raw)), "envelope-bytes")
}
