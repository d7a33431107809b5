package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// counters is a reading of the stack's exported counters.
type counters struct {
	forwarded, delivered, rearms, msgFail int64
	rpcFail                               int64
	walAppends, walSyncs, walCompactions  int64
	storeFailures                         int64
}

func readCounters(st *stack) counters {
	var c counters
	if d := st.srv.Msg; d != nil {
		c.forwarded = d.ForwardedToWS.Value()
		c.delivered = d.RepliesDelivered.Value()
		c.rearms = d.HoldOpenRearms.Value()
		c.msgFail = d.Rejected.Value() + d.DeliveryFailures.Value() +
			d.UnmatchedReplies.Value() + d.QueueDrops.Value()
	}
	if d := st.srv.RPC; d != nil {
		c.rpcFail = d.LookupFailures.Value() + d.BadRequests.Value() + d.ForwardFailures.Value()
	}
	if st.mboxStore != nil {
		w := st.mboxStore.WAL()
		c.walAppends = w.Appends.Value()
		c.walSyncs = w.Syncs.Value()
		c.walCompactions = w.Compactions.Value()
		c.storeFailures = st.mbox.StoreFailures.Value()
	}
	return c
}

// outcome is everything one run measured.
type outcome struct {
	tally   tally
	correct bool
	e2e     map[string]float64
	layers  map[string]float64
	report  []string // attribution lines of a traced run
	detail  map[string]any
}

// run performs one benchmark run.
func run(cfg runConfig) (*outcome, error) {
	wl, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, wl: wl, origin: time.Now(), stop: make(chan struct{})}
	b.ids = newIDs(cfg.seed, cfg.workload == "rpc-echo")
	if cfg.trace {
		b.tr = newTracer(b.ids, b.origin)
	}
	if d, ok := wl.(*mboxDurable); ok {
		defer func() {
			if d.dir != "" {
				os.RemoveAll(d.dir)
			}
		}()
	}
	if err := wl.prepare(b); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	setup, err := b.setUp()
	if err != nil {
		return nil, err
	}
	defer b.teardown()

	var senders sync.WaitGroup
	wl.start(b, &senders)
	time.Sleep(cfg.warmup)

	// The measured interval. A traced run measures its first half
	// untraced (the process-wide readings and the tracing baseline) and
	// records spans in the second.
	c0, p0, t0 := readCounters(b.st), takeProcSnap(), b.now()
	var cm counters
	var pm procSnap
	end := t0 + int64(cfg.seconds)
	tm := end
	if cfg.trace {
		time.Sleep(cfg.seconds / 2)
		cm, pm, tm = readCounters(b.st), takeProcSnap(), b.now()
		b.tr.on.Store(true)
	}
	time.Sleep(time.Duration(end - b.now()))
	c1, p1, t1 := readCounters(b.st), takeProcSnap(), b.now()
	close(b.stop)
	senders.Wait()
	waitDrained(b.ledgers, cfg.drain)
	wl.collectorsDone()
	// What the program holds once the run's work is done, with the stack
	// still up and nothing in flight, less the tracer's own records.
	heap := 0.0
	if cfg.trace {
		heap = liveHeapMB() - float64(b.traceBytes())/(1<<20)
	}
	if cfg.atEnd != nil {
		cfg.atEnd(b.st)
	}
	if b.tr != nil {
		b.tr.on.Store(false)
	}

	o := &outcome{tally: tallyOf(b.ledgers)}
	o.correct = o.tally.corrupt == 0 && o.tally.dup == 0 && o.tally.unknown == 0
	var all []sample
	for _, l := range b.ledgers {
		all = append(all, l.samples.buf...)
	}
	win := windowStats(all, t0, t1, int(cfg.seconds/time.Second))
	if win.ops == 0 {
		return nil, errors.New("no exchange completed in the measured interval")
	}
	// p99 is reported but not gated: on a shared 2-vCPU machine it
	// follows the hypervisor's CPU steal far more than the program.
	o.detail = map[string]any{
		"window_ops":            win.ops,
		"latency_p99_us":        win.p99 / 1e3,
		"latency_p99_pooled_us": win.p99All / 1e3,
	}
	if !cfg.trace {
		cpuPerOp := float64(p1.cpu-p0.cpu) / 1e3 / float64(completedIn(all, t0, t1))
		o.e2e = map[string]float64{
			"throughput_ops_s": win.throughput,
			"latency_p50_us":   win.p50 / 1e3,
			"latency_p90_us":   win.p90 / 1e3,
			"verified_frac":    float64(o.tally.verified) / float64(max(o.tally.attempted, 1)),
			"setup_s":          median(setup.total),
			"cpu_us_per_op":    cpuPerOp,
		}
		return o, nil
	}
	if cfg.traceOut != "" {
		if err := b.tr.writeEvents(cfg.traceOut); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	o.layers, o.report = b.layerMetrics(layerInput{
		all: all, t0: t0, tm: tm, t1: t1,
		c0: c0, cm: cm, c1: c1, p0: p0, pm: pm, p1: p1,
		setup: setup, heapMB: heap,
	})
	return o, nil
}

// window holds per-slice medians over the measured interval (times in
// ns).
type window struct {
	ops                       int
	throughput, p50, p90, p99 float64
	p99All                    float64 // over the whole interval
}

// windowStats splits [t0, t1) into n slices by send time and returns
// the median over slices of each slice's throughput and latency
// percentiles — a stall in one slice moves the result by at most one
// rank.
func windowStats(all []sample, t0, t1 int64, n int) window {
	slice := (t1 - t0) / int64(n)
	lat := make([][]float64, n)
	w := window{}
	for _, s := range all {
		if s.send < t0 || s.send >= t0+slice*int64(n) {
			continue
		}
		i := (s.send - t0) / slice
		lat[i] = append(lat[i], float64(s.end-s.send))
		w.ops++
	}
	var thr, p50, p90, p99, pooled []float64
	for _, l := range lat {
		pooled = append(pooled, l...)
		if len(l) == 0 {
			continue
		}
		sort.Float64s(l)
		thr = append(thr, float64(len(l))/(float64(slice)/1e9))
		p50 = append(p50, quantile(l, 0.50))
		p90 = append(p90, quantile(l, 0.90))
		p99 = append(p99, quantile(l, 0.99))
	}
	w.throughput, w.p50, w.p90, w.p99 = median(thr), median(p50), median(p90), median(p99)
	sort.Float64s(pooled)
	w.p99All = quantile(pooled, 0.99)
	return w
}

// completedIn counts completions whose reply arrived in [t0, t1).
func completedIn(all []sample, t0, t1 int64) int64 {
	var n int64
	for _, s := range all {
		if s.end >= t0 && s.end < t1 {
			n++
		}
	}
	return max(n, 1)
}

// quantile reads q from sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var t float64
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}
