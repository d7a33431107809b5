package msgdisp

import (
	"strings"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// outbound is one message scheduled for delivery. payload is a pooled
// buffer owned by the message from enqueue until the delivery attempt
// completes; the settle path releases it (the courier copies on
// handoff). A message dropped by Stop leaves its buffer to the garbage
// collector, which is safe — pool entries are ordinary heap objects.
type outbound struct {
	payload   *xmlsoap.Buffer
	version   soap.Version
	toService bool // true when heading to a WS, false for reply legs
	// origMessageID, for service-bound messages, is the request's
	// MessageID: when an RPC-style service answers synchronously on
	// the delivery connection (Table 1 quadrant 3 — "translation of
	// semantics from messaging to RPC"), the response body is wrapped
	// as a reply relating to this ID and routed back. It is a detached
	// copy — the queued message outlives the exchange whose pooled
	// body the parsed header aliased.
	origMessageID string
}

// destQueue is the per-destination FIFO of Figure 3. A WsThread binds to
// the queue while it has work (and for HoldOpen afterwards), sending
// messages over one kept-alive connection.
type destQueue struct {
	url string

	mu     sync.Mutex
	ch     chan outbound
	queued int
	active bool
	closed bool
}

func (dq *destQueue) close() {
	dq.mu.Lock()
	dq.closed = true
	dq.mu.Unlock()
}

// destFor returns (creating on first use) the destination's queue.
func (d *Dispatcher) destFor(destURL string) *destQueue {
	dq, ok := d.dests.Get(destURL)
	if !ok {
		// The map key and the queue's binding outlive this exchange,
		// while destURL may alias the pooled request body (it is the
		// parsed To header whenever the address is physical). Detach
		// once at queue creation; the steady-state lookup above stays
		// allocation-free.
		url := strings.Clone(destURL)
		dq = d.dests.GetOrCompute(url, func() *destQueue {
			return &destQueue{url: url, ch: make(chan outbound, d.cfg.QueueCap)}
		})
	}
	return dq
}

// enqueue adds a message to the destination's queue, spinning up a
// WsThread if none is bound. It reports false when the queue is full or
// closed.
func (d *Dispatcher) enqueue(msg outbound, destURL string) bool {
	dq := d.destFor(destURL)
	dq.mu.Lock()
	if dq.closed || dq.queued >= d.cfg.QueueCap {
		dq.mu.Unlock()
		return false
	}
	dq.queued++
	spawn := !dq.active
	if spawn {
		dq.active = true
	}
	dq.mu.Unlock()

	// Space is guaranteed: queued is incremented under the same lock
	// that bounds it by QueueCap == cap(ch).
	dq.ch <- msg
	if spawn {
		go d.wsThread(dq)
	}
	return true
}

// enqueueBatch admits a burst of messages for one destination in a
// single queue transaction: one lock acquisition bumps queued by the
// whole admitted count, and at most one WsThread spawns for the burst
// (so its HoldOpen timer arms once, not once per message). The longest
// FIFO prefix with room is admitted; the return value reports how many
// messages were taken, and the caller keeps ownership of the tail.
// Accepted/drop accounting stays with the caller, as with enqueue.
func (d *Dispatcher) enqueueBatch(msgs []outbound, destURL string) int {
	if len(msgs) == 0 {
		return 0
	}
	dq := d.destFor(destURL)
	dq.mu.Lock()
	if dq.closed {
		dq.mu.Unlock()
		return 0
	}
	n := len(msgs)
	if room := d.cfg.QueueCap - dq.queued; n > room {
		n = room
	}
	if n <= 0 {
		dq.mu.Unlock()
		return 0
	}
	dq.queued += n
	spawn := !dq.active
	if spawn {
		dq.active = true
	}
	dq.mu.Unlock()
	for i := 0; i < n; i++ {
		dq.ch <- msgs[i]
	}
	if spawn {
		go d.wsThread(dq)
	}
	return n
}

// replySink batches the admission of replies bridged while a delivery
// burst's responses are processed: instead of each bridged reply paying
// its own queue transaction inside the response loop, they collect here
// and admit per-destination through enqueueBatch when the burst settles.
// The sink is WsThread-local scratch, reused across bursts.
type replySink struct {
	dests []string
	msgs  []outbound
}

func (s *replySink) add(dest string, msg outbound) {
	s.dests = append(s.dests, dest)
	s.msgs = append(s.msgs, msg)
}

// flushSink admits everything the sink collected, grouping consecutive
// same-destination runs into one batch admission each, with the
// Accepted/drop accounting the inline enqueue path would have done.
func (d *Dispatcher) flushSink(sink *replySink) {
	for i := 0; i < len(sink.msgs); {
		j := i + 1
		for j < len(sink.msgs) && sink.dests[j] == sink.dests[i] {
			j++
		}
		group := sink.msgs[i:j]
		admitted := d.enqueueBatch(group, sink.dests[i])
		d.Accepted.Add(int64(admitted))
		for _, m := range group[admitted:] {
			xmlsoap.PutBuffer(m.payload)
			d.QueueDrops.Inc()
			d.Rejected.Inc()
		}
		i = j
	}
	sink.dests = sink.dests[:0]
	sink.msgs = sink.msgs[:0]
}

// wsThread drains one destination's queue. The destination binding (and
// the kept-alive connection the httpx client pools) lasts until the queue
// stays empty for HoldOpen, but each individual delivery must hold one of
// the WsWorkers pool slots while it is on the wire.
//
// The per-delivery slot is the paper's bounded second thread pool: a
// delivery stalled against a firewalled destination occupies its slot for
// the full connect timeout, starving every other destination — including
// forwards toward services. That contention is exactly why the paper
// measures plain MSG-Dispatcher as the slowest Figure 6 configuration
// while MSG-Dispatcher + WS-MsgBox (whose reply deliveries are fast) is
// the fastest.
//
// Each wake drains whatever is queued, up to BatchMax, as one burst (a
// lone message is a burst of one): one queued-count update, one
// WsWorkers slot, one pipelined vectored delivery over the held
// connection, and one HoldOpen re-arm for the whole burst.
func (d *Dispatcher) wsThread(dq *destQueue) {
	// The destination binding IS the paper's held connection: one
	// httpx.Stream pins a connection to this destination for the
	// binding's life, so consecutive queued messages pipeline over it
	// without a round trip through the client's idle pool, and the
	// request structs are reused across every burst. Closing the
	// stream on unbind parks a healthy connection back in the shared
	// pool for the next binding.
	var (
		stream *httpx.Stream
		path   string
		// Burst scratch, allocated once per binding as bursts first need
		// it: the drained messages, the reusable request structs they
		// are rendered through, and the bridged-reply sink.
		batch []outbound
		reqs  []*httpx.Request
		sink  replySink
	)
	if addr, p, err := httpx.SplitURL(dq.url); err == nil {
		stream = d.client.Stream(addr)
		path = p
		defer stream.Close()
	}

	// One reusable hold-open timer for the binding's whole life: After
	// would allocate a timer and channel on every loop iteration, i.e.
	// per delivered message. Stale fires are filtered by deadline, not
	// just by Stop-and-drain: a Virtual-clock fire runs asynchronously
	// after its waiter is popped, so it can land in C after the drain
	// below came up empty — the deadline check keeps such a late fire
	// from cutting the freshly re-armed window short.
	clk := d.cfg.Clock
	idle := clk.NewTimer(d.cfg.HoldOpen)
	deadline := clk.Now().Add(d.cfg.HoldOpen)
	defer idle.Stop()
	for {
		select {
		case msg := <-dq.ch:
			// Drain whatever else is already queued, up to BatchMax,
			// without blocking: the burst settles under one queue
			// transaction instead of one per message.
			if batch == nil {
				batch = make([]outbound, 0, d.cfg.BatchMax)
			}
			batch = append(batch[:0], msg)
		drain:
			for len(batch) < d.cfg.BatchMax {
				select {
				case m := <-dq.ch:
					batch = append(batch, m)
				default:
					break drain
				}
			}
			dq.mu.Lock()
			dq.queued -= len(batch)
			dq.mu.Unlock()
			for len(reqs) < len(batch) {
				reqs = append(reqs, new(httpx.Request))
			}
			d.wsSlots <- struct{}{}
			d.deliverBatch(dq, stream, path, reqs[:len(batch)], batch, &sink)
			<-d.wsSlots
			// Re-arm the full hold-open window — once per burst, not per
			// message — draining a stale fire first so it cannot satisfy
			// the next wait immediately.
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(d.cfg.HoldOpen)
			deadline = clk.Now().Add(d.cfg.HoldOpen)
			d.HoldOpenRearms.Inc()
		case <-idle.C:
			if now := clk.Now(); now.Before(deadline) {
				// Stale fire from an arm preceding the last Reset;
				// wait out the remainder of the current window.
				idle.Reset(deadline.Sub(now))
				continue
			}
			// Idle: release the destination binding if the queue
			// is (still) empty; otherwise keep draining.
			dq.mu.Lock()
			if dq.queued == 0 || dq.closed {
				dq.active = false
				dq.mu.Unlock()
				return
			}
			dq.mu.Unlock()
			idle.Reset(d.cfg.HoldOpen)
			deadline = clk.Now().Add(d.cfg.HoldOpen)
		}
	}
}

// deliverBatch posts a burst of same-destination messages over the
// binding's stream as one pipelined, vectored write (Stream.DoBatch) and
// settles the responses in pipeline order. Error isolation:
// messages whose responses arrived are fully settled; on a mid-batch
// failure the unanswered tail is requeued in FIFO order for a fresh
// attempt rather than dropped, and a batch that failed whole (nothing
// answered) takes the per-message failure path, courier fallback
// included. Bridged replies produced while settling collect in sink and
// admit in batched queue transactions once the burst is done. The
// settle callback does not escape DoBatch, so it costs no allocation.
func (d *Dispatcher) deliverBatch(dq *destQueue, stream *httpx.Stream, path string, reqs []*httpx.Request, msgs []outbound, sink *replySink) {
	if stream == nil {
		for i := range msgs {
			d.DeliveryFailures.Inc()
			xmlsoap.PutBuffer(msgs[i].payload)
		}
		return
	}
	start := d.cfg.Clock.Now()
	for i := range msgs {
		r := reqs[i]
		r.Reset()
		r.Method, r.Path, r.Proto = "POST", path, "HTTP/1.1"
		r.Body = msgs[i].payload.B
		r.Header.Set("Content-Type", msgs[i].version.ContentType())
	}
	done, err := stream.DoBatch(reqs, d.cfg.DeliveryTimeout, func(i int, resp *httpx.Response) {
		d.settleDelivery(dq.url, msgs[i], resp, start, sink)
	})
	d.flushSink(sink)
	if err == nil {
		return
	}
	if done == 0 {
		// Nothing was answered (and, after DoBatch's one retry, nothing
		// will be): every message fails — count, hand to the courier,
		// release.
		for i := range msgs {
			d.failDelivery(dq.url, msgs[i])
		}
		return
	}
	// Mid-batch failure: the tail went out with the batch write but its
	// responses never came. Requeue it — FIFO order preserved — for a
	// fresh delivery attempt; whatever no longer fits (the queue
	// refilled meanwhile) fails over to the courier.
	tail := msgs[done:]
	requeued := d.enqueueBatch(tail, dq.url)
	for i := requeued; i < len(tail); i++ {
		d.failDelivery(dq.url, tail[i])
	}
}

// settleDelivery records the outcome of one answered delivery and
// releases the message's payload; bridged-reply admission is deferred to
// the burst's sink.
func (d *Dispatcher) settleDelivery(destURL string, msg outbound, resp *httpx.Response, start time.Time, sink *replySink) {
	defer xmlsoap.PutBuffer(msg.payload)
	if resp.Status >= 300 {
		d.DeliveryFailures.Inc()
		if d.cfg.Courier != nil {
			// SendPayload copies the payload (and detaches the ID and
			// destination) into the store, so the pooled buffer can
			// still be released on return; msg.origMessageID was
			// already detached at enqueue.
			if _, cerr := d.cfg.Courier.SendPayload(destURL, msg.origMessageID, msg.payload.B); cerr == nil {
				d.HandedToCourier.Inc()
			}
		}
		return
	}
	d.DeliveryLatency.Observe(d.cfg.Clock.Since(start))
	if msg.toService {
		d.ForwardedToWS.Inc()
		if resp.Status == httpx.StatusOK && len(resp.Body) > 0 {
			d.bridgeRPCResponse(msg, resp.Body, sink)
		}
	} else {
		d.RepliesDelivered.Inc()
	}
}

// failDelivery settles a message whose delivery attempt failed outright
// (transport error, batch never answered): failure accounting, courier
// fallback, payload release.
func (d *Dispatcher) failDelivery(destURL string, msg outbound) {
	defer xmlsoap.PutBuffer(msg.payload)
	d.DeliveryFailures.Inc()
	// The delivery thread knows only the physical URL, not which logical
	// name resolved to it, so the dead mark scans by URL; subsequent
	// logical resolutions then fail over to the remaining live backends.
	if d.cfg.MarkDeadOnError {
		d.registry.MarkDeadURL(destURL)
	}
	if d.cfg.Courier != nil {
		if _, cerr := d.cfg.Courier.SendPayload(destURL, msg.origMessageID, msg.payload.B); cerr == nil {
			d.HandedToCourier.Inc()
		}
	}
}

// bridgeRPCResponse handles a destination that answered on the delivery
// connection instead of posting a separate reply message: an RPC-based
// service behind the MSG-Dispatcher (Table 1 quadrant 3). The response is
// loaded like any inbound message. A fully addressed reply (To and
// RelatesTo) is routed as if it had been posted to us; anything else is
// given synthesized reply addressing — To the dispatcher, a fresh
// MessageID, RelatesTo the original MessageID — in place of whatever
// headers it carried, and handed to reply routing so it reaches the
// requester's ReplyTo or a blocked anonymous waiter.
//
// body is the delivery response's pooled buffer, valid only until the
// settle path releases it on return; everything routed onward is
// rendered into its own buffer or detached, exactly as for an inbound
// request. Routing runs with no exchange — the delivery connection
// already has its answer.
func (d *Dispatcher) bridgeRPCResponse(msg outbound, body []byte, sink *replySink) {
	if msg.origMessageID == "" {
		return
	}
	if _, waiting := d.pending.Get(msg.origMessageID); !waiting {
		return // nobody expects a reply; discard like any one-way ack
	}
	var v view
	if v.load(body) != nil {
		return // not a SOAP payload; plain 200 ack
	}
	if v.fields[fieldTo] != "" && v.fields[fieldRelatesTo] != "" {
		d.routeView(nil, &v, sink)
		return
	}
	// GetAndDelete claims the entry atomically, so a concurrent router
	// of the same correlation ID cannot also win.
	entry, ok := d.pending.GetAndDelete(msg.origMessageID)
	if !ok {
		d.UnmatchedReplies.Inc()
		return
	}
	if v.env != nil {
		v.env.Header = nil // the synthesized addressing replaces every block
	}
	v.setHeaders(&wsa.Headers{
		To:        d.cfg.ReturnAddress,
		MessageID: wsa.NewMessageID(),
		RelatesTo: msg.origMessageID,
	})
	d.routeReply(nil, &v, entry, sink)
}
