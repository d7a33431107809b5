package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/wsa"
)

// layerInput carries a traced run's readings: [t0, tm) ran untraced,
// [tm, t1) traced.
type layerInput struct {
	all        []sample
	t0, tm, t1 int64
	c0, cm, c1 counters
	p0, pm, p1 procSnap
	setup      setupTimes
	heapMB     float64 // live heap after the run, nothing in flight
}

// checkpoint names one observation along an exchange's blocking path.
type checkpoint struct {
	r   role
	d   dir
	leg uint8
}

// stage is the interval between consecutive checkpoints and the layer
// it is charged to; "wire" stages (loopback, kernel, goroutine wake-ups)
// belong to no layer and make up the unattributed residual.
type stage struct {
	name, layer string
}

var (
	cpSend = checkpoint{roleBench, dirReq, 0}
	cpDone = checkpoint{roleBench, dirResp, 0}
)

// path returns the blocking path of the workload's exchanges.
func path(workload string) ([]checkpoint, []stage) {
	switch workload {
	case "rpc-echo":
		return []checkpoint{
				cpSend,
				{roleClient, dirReq, 0},
				{roleDispIn, dirReq, 0},
				{roleDispOut, dirReq, 0},
				{roleBackIn, dirReq, 0},
				{roleBackIn, dirResp, 0},
				{roleDispOut, dirResp, 0},
				{roleDispIn, dirResp, 0},
				{roleClient, dirResp, 0},
				cpDone,
			}, []stage{
				{"client render+write", "client"},
				{"client->rpcdisp", "wire"},
				{"rpcdisp read->forward write", "rpcdisp"},
				{"rpcdisp->backend", "wire"},
				{"backend read->response write", "echoservice"},
				{"backend->rpcdisp", "wire"},
				{"rpcdisp response read->relay write", "rpcdisp"},
				{"rpcdisp->client", "wire"},
				{"client read+parse", "client"},
			}
	case "msg-reply":
		return []checkpoint{
				cpSend,
				{roleClient, dirReq, 0},
				{roleDispIn, dirReq, 0},
				{roleDispOut, dirReq, 0},
				{roleBackIn, dirReq, 0},
				{roleBackOut, dirReq, legReply},
				{roleDispIn, dirReq, legReply},
				{roleDispOut, dirReq, legReply},
				{roleReplyIn, dirReq, legReply},
				cpDone,
			}, []stage{
				{"client render+write", "client"},
				{"client->msgdisp", "wire"},
				{"msgdisp read->forward write (CxThread, queue, WsThread)", "msgdisp"},
				{"msgdisp->backend", "wire"},
				{"backend read->reply write", "echoservice"},
				{"backend->msgdisp", "wire"},
				{"msgdisp reply read->reply write", "msgdisp"},
				{"msgdisp->reply endpoint", "wire"},
				{"endpoint read+verify", "client"},
			}
	default: // mbox-durable
		return []checkpoint{
				cpSend,
				{roleClient, dirReq, 0},
				{roleDispIn, dirReq, 0},
				{roleDispOut, dirReq, 0},
				{roleBackIn, dirReq, 0},
				{roleBackOut, dirReq, legReply},
				{roleDispIn, dirReq, legReply},
				{roleDispOut, dirReq, legReply},
				{roleMboxIn, dirReq, legReply},
				{roleMboxIn, dirRespMark, 0},
				{roleClient, dirRespMark, 0},
				cpDone,
			}, []stage{
				{"client render+write", "client"},
				{"client->msgdisp", "wire"},
				{"msgdisp read->forward write (CxThread, queue, WsThread)", "msgdisp"},
				{"msgdisp->backend", "wire"},
				{"backend read->reply write", "echoservice"},
				{"backend->msgdisp", "wire"},
				{"msgdisp reply read->deposit write", "msgdisp"},
				{"msgdisp->msgbox", "wire"},
				{"msgbox deposit read->take response write (park)", "msgbox"},
				{"msgbox->collector", "wire"},
				{"collector read+parse+verify", "client"},
			}
	}
}

// opEvents indexes one exchange's events by checkpoint (first seen).
type opEvents map[checkpoint]int64

func (b *bench) layerMetrics(in layerInput) (map[string]float64, []string) {
	tr := b.tr
	byOp := map[opKey]opEvents{}
	spans := map[uint8][]float64{}
	open := map[[2]uint64]int64{}
	for _, e := range tr.events {
		if e.r == roleHandler {
			key := [2]uint64{uint64(e.op), uint64(e.tag)}
			if e.d == dirSpanStart {
				open[key] = e.at
			} else if s, ok := open[key]; ok {
				spans[e.tag] = append(spans[e.tag], float64(e.at-s))
				delete(open, key)
			}
			continue
		}
		ev := byOp[e.op]
		if ev == nil {
			ev = opEvents{}
			byOp[e.op] = ev
		}
		cp := checkpoint{e.r, e.d, e.tag}
		if _, seen := ev[cp]; !seen {
			ev[cp] = e.at
		}
	}

	cps, stages := path(b.cfg.workload)
	stageNs := make([][]float64, len(stages))
	var e2e []float64
	residence, upstream, rpcSelf := []float64{}, []float64{}, []float64{}
	accept, forward, reply, park := []float64{}, []float64{}, []float64{}, []float64{}
	for _, ev := range byOp {
		send, ok1 := ev[cpSend]
		done, ok2 := ev[cpDone]
		if !ok1 || !ok2 || send < in.tm {
			continue
		}
		if a, ok := ev[checkpoint{roleDispIn, dirReq, 0}]; ok {
			if w, ok := ev[checkpoint{roleDispIn, dirResp, 0}]; ok {
				if b.cfg.workload == "rpc-echo" {
					residence = append(residence, float64(w-a))
					if uo, ok := ev[checkpoint{roleDispOut, dirReq, 0}]; ok {
						if ui, ok := ev[checkpoint{roleDispOut, dirResp, 0}]; ok {
							upstream = append(upstream, float64(ui-uo))
							rpcSelf = append(rpcSelf, float64(w-a-(ui-uo)))
						}
					}
				} else {
					accept = append(accept, float64(w-a))
				}
			}
			if f, ok := ev[checkpoint{roleDispOut, dirReq, 0}]; ok && b.cfg.workload != "rpc-echo" {
				forward = append(forward, float64(f-a))
			}
		}
		if ri, ok := ev[checkpoint{roleDispIn, dirReq, legReply}]; ok {
			if ro, ok := ev[checkpoint{roleDispOut, dirReq, legReply}]; ok {
				reply = append(reply, float64(ro-ri))
			}
		}
		if d, ok := ev[checkpoint{roleMboxIn, dirReq, legReply}]; ok {
			if t, ok := ev[checkpoint{roleMboxIn, dirRespMark, 0}]; ok {
				park = append(park, float64(t-d))
			}
		}
		// The stage breakdown needs every checkpoint of the path.
		ts := make([]int64, len(cps))
		complete := true
		for i, cp := range cps {
			t, ok := ev[cp]
			if !ok {
				complete = false
				break
			}
			ts[i] = t
		}
		if !complete {
			continue
		}
		e2e = append(e2e, float64(done-send))
		for i := range stages {
			stageNs[i] = append(stageNs[i], float64(ts[i+1]-ts[i]))
		}
	}

	m := map[string]float64{}
	us := func(ns float64) float64 { return ns / 1e3 }
	pct := func(v []float64, q float64) float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		return quantile(s, q)
	}
	opsIn := func(a, z int64) float64 {
		n := 0
		for _, s := range in.all {
			if s.send >= a && s.send < z {
				n++
			}
		}
		return float64(max(n, 1))
	}
	opsU, opsT, opsAll := opsIn(in.t0, in.tm), opsIn(in.tm, in.t1), opsIn(in.t0, in.t1)
	halfU := float64(in.tm-in.t0) / 1e9
	halfT := float64(in.t1-in.tm) / 1e9

	// Client library, timed from outside.
	m["client.send_us_p50"] = us(pct(i64s(b.sendNs), 0.5))
	m["client.take_us_p50"] = us(pct(i64s(b.takeNs), 0.5))
	if t := b.takes.Load(); t > 0 {
		m["client.replies_per_take"] = float64(b.taken.Load()) / float64(t)
		m["client.empty_take_frac"] = float64(b.emptyTake.Load()) / float64(t)
	} else {
		m["client.replies_per_take"], m["client.empty_take_frac"] = 0, 0
	}

	// httpx, at the dispatcher's own connections (traced half).
	in0, out0 := &tr.io[roleDispIn], &tr.io[roleDispOut]
	reqs := float64(max(in0.requests.Load(), 1))
	msgs := float64(max(out0.requests.Load(), 1))
	m["httpx.in.reads_per_req"] = float64(in0.reads.Load()) / reqs
	m["httpx.in.writes_per_req"] = float64(in0.writes.Load()) / reqs
	m["httpx.out.writes_per_msg"] = float64(out0.writes.Load()) / msgs
	m["httpx.out.msgs_per_dial"] = float64(out0.requestsAll.Load()) / float64(max(out0.dials.Load(), 1))
	m["httpx.wire_bytes_per_op"] = float64(in0.readBytes.Load()+in0.wroteBytes.Load()+
		out0.readBytes.Load()+out0.wroteBytes.Load()) / opsT
	m["httpx.write_us_per_op"] = us(float64(in0.writeNs.Load()+out0.writeNs.Load()) / opsT)

	m["registry.resolve_ns"] = resolveNs(b.st.srv.Registry, b.st.names[0])

	m["rpcdisp.residence_us_p50"] = us(pct(residence, 0.5))
	m["rpcdisp.residence_us_p99"] = us(pct(residence, 0.99))
	m["rpcdisp.self_us_mean"] = us(mean(rpcSelf))
	m["rpcdisp.upstream_us_p50"] = us(pct(upstream, 0.5))
	m["rpcdisp.failures_per_kop"] = float64(in.c1.rpcFail-in.c0.rpcFail) / opsAll * 1e3

	skimFrac, skimNs, spliceNs, parseNs := replay(b.captured, b.st.msgURL)
	m["wsa.skim_accept_frac"] = skimFrac
	m["wsa.skim_ns"] = skimNs
	m["wsa.splice_ns"] = spliceNs
	m["soap.parse_ns"] = parseNs

	m["msgdisp.accept_us_p50"] = us(pct(accept, 0.5))
	m["msgdisp.accept_us_p99"] = us(pct(accept, 0.99))
	m["msgdisp.forward_us_p50"] = us(pct(forward, 0.5))
	m["msgdisp.forward_us_p99"] = us(pct(forward, 0.99))
	m["msgdisp.reply_us_p50"] = us(pct(reply, 0.5))
	m["msgdisp.reply_us_p99"] = us(pct(reply, 0.99))
	if r := in.c1.rearms - in.c0.rearms; r > 0 {
		m["msgdisp.msgs_per_burst"] = float64(in.c1.forwarded+in.c1.delivered-in.c0.forwarded-in.c0.delivered) / float64(r)
	} else {
		m["msgdisp.msgs_per_burst"] = 0
	}
	m["msgdisp.failures_per_kop"] = float64(in.c1.msgFail-in.c0.msgFail) / opsAll * 1e3

	m["echoservice.busy_us_mean"] = us(mean(spans[spanBackend]))

	m["msgbox.deposit_us_p50"] = us(pct(spans[spanDeposit], 0.5))
	m["msgbox.deposit_us_p99"] = us(pct(spans[spanDeposit], 0.99))
	m["msgbox.take_us_p50"] = us(pct(i64s(tr.takeNs), 0.5))
	m["msgbox.take_us_p99"] = us(pct(i64s(tr.takeNs), 0.99))
	m["msgbox.park_us_p50"] = us(pct(park, 0.5))
	m["msgbox.store_failures_per_kop"] = float64(in.c1.storeFailures-in.c0.storeFailures) / opsAll * 1e3
	m["msgbox.start_s"] = median(in.setup.mboxStart)
	m["store.open_s"] = median(in.setup.storeOpen)
	m["wal.recovered_records"] = float64(in.setup.recovered)

	// Process-wide and WAL readings come from the untraced half.
	m["wal.appends_per_op"] = float64(in.cm.walAppends-in.c0.walAppends) / opsU
	if s := in.cm.walSyncs - in.c0.walSyncs; s > 0 {
		m["wal.appends_per_sync"] = float64(in.cm.walAppends-in.c0.walAppends) / float64(s)
	} else {
		m["wal.appends_per_sync"] = 0
	}
	m["wal.disk_bytes_per_op"] = float64(in.pm.diskWrite-in.p0.diskWrite) / opsU
	m["wal.compactions"] = float64(in.c1.walCompactions - in.c0.walCompactions)
	m["process.allocs_per_op"] = float64(in.pm.allocs-in.p0.allocs) / opsU
	m["process.alloc_bytes_per_op"] = float64(in.pm.allocBytes-in.p0.allocBytes) / opsU
	if cpu := in.pm.totalCPU - in.p0.totalCPU; cpu > 0 {
		m["process.gc_cpu_frac"] = (in.pm.gcCPU - in.p0.gcCPU) / cpu
	} else {
		m["process.gc_cpu_frac"] = 0
	}
	m["process.sched_wait_us_p99"] = schedP99(in.p0, in.pm)
	m["process.ctx_switches_per_op"] = float64(in.pm.ctxSwitches-in.p0.ctxSwitches) / opsU
	m["process.heap_live_mb"] = in.heapMB

	// Tracing quality: throughput lost to tracing, and the share of the
	// exchange spent between layers.
	m["trace.overhead_frac"] = 1 - (opsT/halfT)/(opsU/halfU)
	var report []string
	e2eMean := mean(e2e)
	var unattributed float64
	report = append(report, fmt.Sprintf("attribution %s: %d traced exchanges, mean end-to-end %.1f us",
		b.cfg.workload, len(e2e), us(e2eMean)))
	for i, s := range stages {
		mu := mean(stageNs[i])
		if s.layer == "wire" {
			unattributed += mu
		}
		report = append(report, fmt.Sprintf("  %-10s %-58s %9.1f us", s.layer, s.name, us(mu)))
	}
	report = append(report, fmt.Sprintf("  residual (wire stages: loopback, kernel, wake-ups) %.1f us of %.1f us; tracing cost %.1f%% of throughput",
		us(unattributed), us(e2eMean), 100*m["trace.overhead_frac"]))
	m["trace.unattributed_us_mean"] = us(unattributed)
	return m, report
}

func i64s(v []int64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// resolveNs times the registry's per-message resolution.
func resolveNs(reg *registry.Registry, name string) float64 {
	var dst [2]*registry.Endpoint
	const n = 200000
	start := time.Now()
	for i := 0; i < n; i++ {
		reg.ResolveN(name, dst[:])
	}
	return float64(time.Since(start)) / n
}

// replay times the MSG-Dispatcher's routing steps on the envelopes the
// run actually sent: the skim, the splice that rewrites ReplyTo, and the
// full parse the skim falls back to.
func replay(envs [][]byte, returnAddr string) (acceptFrac, skimNs, spliceNs, parseNs float64) {
	if len(envs) == 0 {
		return 0, 0, 0, 0
	}
	const reps = 20
	var sk wsa.Skim
	accepted := 0
	var skimT, spliceT, parseT time.Duration
	var dst []byte
	for _, raw := range envs {
		t := time.Now()
		var ok bool
		for i := 0; i < reps; i++ {
			ok = wsa.SkimEnvelope(raw, &sk)
		}
		skimT += time.Since(t)
		if ok {
			accepted++
			var f [wsa.SkimFieldCount]string
			sk.Fields(&f)
			f[5] = returnAddr
			t = time.Now()
			for i := 0; i < reps; i++ {
				dst, _ = wsa.AppendSkimRewritten(dst[:0], sk.Version, sk.Body, &f)
			}
			spliceT += time.Since(t)
		}
		t = time.Now()
		for i := 0; i < reps; i++ {
			soap.Parse(raw)
		}
		parseT += time.Since(t)
	}
	n := float64(len(envs) * reps)
	acceptFrac = float64(accepted) / float64(len(envs))
	if accepted > 0 {
		spliceNs = float64(spliceT) / float64(accepted*reps)
	}
	return acceptFrac, float64(skimT) / n, spliceNs, float64(parseT) / n
}
