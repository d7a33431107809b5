// Package msgdisp implements the MSG-Dispatcher: the asynchronous,
// store-and-forward half of the WS-Dispatcher (paper §4.1–4.2, Figure 3).
//
// Architecture, mirroring the paper:
//
//   - Incoming requests are handed to a bounded pool of CxThreads whose
//     job is "to map logical address with physical address of the WS and
//     parse the WS-Addressing message of the request to modify client's
//     information with MSG-Dispatcher's return address".
//   - Each destination has a FIFO queue drained by a WsThread that "has an
//     open connection for a predefined time with a specified WS" and
//     delivers queued messages over it — multiple messages per connection,
//     "which is more efficient than opening multiple short lived
//     connections".
//   - "Responses from WSs are also treated like requests from clients":
//     a message whose RelatesTo matches a remembered MessageID is routed
//     to the original sender's ReplyTo — the real client endpoint, or its
//     WS-MsgBox mailbox.
//
// The WsThread pool is a *shared, bounded* set of workers. That bound is
// load-bearing for Figure 6: when replies must be delivered to firewalled
// clients, each delivery attempt stalls a WsThread for the full dial
// timeout, starving forward traffic — which is why the paper measures
// plain MSG-Dispatcher as the slowest configuration and MSG-Dispatcher +
// WS-MsgBox as the fastest.
//
// # One routing path, two front ends
//
// Every message — posted by a client, posted by a service, or answered
// synchronously on a WsThread's delivery connection — is routed once,
// against a view: its SOAP version, the seven WS-Addressing values (EPR
// fields as their Address text), and a render source. Classify (reply
// or request), resolve, register pending-reply state, rewrite+render,
// admit, reply routing and the RPC bridge are each written once against
// that view.
//
// Two front ends fill it. The skim (wsa.SkimEnvelope) comes first: it
// accepts the stack's own canonical wire form, yields spans over the
// pooled request buffer, and costs no allocation. Whatever it declines
// goes to soap.Parse and wsa.FromEnvelope. The choice is made from the
// input alone, and a decline is invisible: same verdicts, fault
// strings, counters and wire bytes (see the wsa package doc for the
// contract the skim keeps).
//
// The render source follows the front end. A skimmed view splices its
// canonical body span under the rewritten fields
// (wsa.AppendSkimRewritten). A parsed view renders its own *wsa.Headers
// through wsa.AppendRewritten with only the fields the leg rewrites (To,
// ReplyTo) overridden, so foreign header blocks and reference properties
// reach the wire as they arrived. Every view value aliases the
// exchange's pooled body: anything kept past the routing pass (pending
// keys, reply addresses, queued payloads) is detached or rendered into
// its own buffer.
package msgdisp

import (
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/cmap"
	"repro/internal/httpx"
	"repro/internal/pool"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/stats"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// LogicalScheme prefixes WS-Addressing To values that name a registry
// entry rather than a physical URL, e.g. "logical:echo".
const LogicalScheme = "logical:"

// Config tunes a Dispatcher.
type Config struct {
	// Clock drives hold-open timers and timeouts.
	Clock clock.Clock
	// ReturnAddress is this dispatcher's own message endpoint; it is
	// written into forwarded messages' ReplyTo so services answer
	// through the dispatcher. Required.
	ReturnAddress string
	// CxWorkers sizes the first thread pool (incoming processing).
	// Default 8.
	CxWorkers int
	// CxBacklog bounds queued unprocessed requests. Default 256.
	CxBacklog int
	// WsWorkers sizes the second pool: the maximum number of
	// destinations being delivered to concurrently. Default 16.
	WsWorkers int
	// QueueCap bounds each destination's FIFO. Default 1024.
	QueueCap int
	// HoldOpen is how long an idle WsThread stays bound to its
	// destination (connection held) before releasing its pool slot.
	// Default 5s.
	HoldOpen time.Duration
	// DeliveryTimeout bounds one delivery attempt. Default 21s — the
	// TCP connect timeout a firewalled destination consumes in full.
	DeliveryTimeout time.Duration
	// BatchMax caps messages sent per queue drain pass. Default 16.
	BatchMax int
	// PendingTTL is how long reply-routing state (MessageID → original
	// ReplyTo) is retained. Default 5m.
	PendingTTL time.Duration
	// StateShards sets the stripe count for the dispatcher's keyed
	// state (pending-reply waiters and per-destination queues), rounded
	// up to a power of two. Default 64; 1 collapses to a single lock
	// (the ablation baseline the benchmarks compare against).
	StateShards int
	// MarkDeadOnError flags a destination endpoint dead in the registry
	// after a delivery failure, so logical resolution fails over to the
	// remaining backends.
	MarkDeadOnError bool
	// AnonymousWait bounds how long a request whose ReplyTo is the
	// WS-Addressing anonymous URI holds its HTTP connection open
	// waiting for the correlated reply (Table 1 quadrant 2: an RPC
	// client calling a messaging service — "may not work at all if
	// message reply comes too late"). Default 25s.
	AnonymousWait time.Duration
	// Courier, when set, receives messages whose immediate delivery
	// failed for store-backed hold/retry with expiration — the paper's
	// WS-ReliableMessaging-flavoured future work ("adding hold/retry
	// on delivery ... with messages stored in DB with expiration
	// time"). Nil drops failed deliveries after counting them.
	Courier DeliveryFallback
}

// DeliveryFallback is the hook the reliable.Courier satisfies.
type DeliveryFallback interface {
	SendPayload(destURL, id string, payload []byte) (string, error)
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.Wall
	}
	if c.CxWorkers <= 0 {
		c.CxWorkers = 8
	}
	if c.CxBacklog <= 0 {
		c.CxBacklog = 256
	}
	if c.WsWorkers <= 0 {
		c.WsWorkers = 16
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1024
	}
	if c.HoldOpen <= 0 {
		c.HoldOpen = 5 * time.Second
	}
	if c.DeliveryTimeout <= 0 {
		c.DeliveryTimeout = 21 * time.Second
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
	if c.PendingTTL <= 0 {
		c.PendingTTL = 5 * time.Minute
	}
	if c.StateShards <= 0 {
		c.StateShards = 64
	}
	if c.AnonymousWait <= 0 {
		c.AnonymousWait = 25 * time.Second
	}
	return c
}

// Dispatcher is the asynchronous message router. It implements
// httpx.Handler for its message endpoint.
type Dispatcher struct {
	cfg      Config
	registry *registry.Registry
	client   *httpx.Client

	cx      *pool.Pool
	dests   *cmap.Map[*destQueue]
	wsSlots chan struct{}
	pending *cmap.Map[pendingReply]

	// timers recycles anonymous-wait timers across exchanges (see
	// awaitAnonymous for the stale-fire discipline). waiters recycles
	// their reply slots (see waiterSlot for the generation guard), and
	// cxTasks the Serve admission closures.
	timers  sync.Pool
	waiters sync.Pool
	cxTasks sync.Pool

	// selfEPR and noneEPR are the two constant ReplyTo rewrites, built
	// once so the per-message rewrite allocates nothing. They are shared
	// read-only across messages.
	selfEPR *wsa.EPR
	noneEPR *wsa.EPR

	stopMu  sync.Mutex
	stopped bool

	// Counters for the evaluation harness.
	Accepted         stats.Counter // messages admitted (202)
	Rejected         stats.Counter // malformed / unroutable / overloaded
	ForwardedToWS    stats.Counter // deliveries to services that succeeded
	RepliesRouted    stats.Counter // responses matched to a pending request
	RepliesDelivered stats.Counter // responses that reached their ReplyTo
	DeliveryFailures stats.Counter // deliveries that failed (any direction)
	UnmatchedReplies stats.Counter // responses with unknown RelatesTo
	QueueDrops       stats.Counter // messages dropped at full queues
	HandedToCourier  stats.Counter // failed deliveries given to hold/retry
	HoldOpenRearms   stats.Counter // WsThread delivery bursts (one timer re-arm each)
	DeliveryLatency  stats.Histogram
}

type pendingReply struct {
	// replyTo is the detached ReplyTo address the reply is forwarded
	// to; "" for anonymous entries, whose reply goes to the waiter
	// instead (skipping the detach — anonymous is the steady-state RPC
	// path and the address would never be read).
	replyTo string
	// waiter, when non-nil, is the slot of an RPC-style caller blocked
	// on its HTTP connection; the reply is handed over the slot's
	// channel instead of being forwarded. wgen is the slot generation
	// observed at registration — a delivery stamped with it can be
	// recognized as stale by a later owner of the recycled slot.
	waiter  *waiterSlot
	wgen    uint64
	expires time.Time
}

// waiterSlot is the pooled rendezvous of one anonymous-RPC wait: a
// 1-buffered reply channel recycled across exchanges, plus the
// generation counter that keeps recycling safe. The slot is owned by
// exactly one waiting exchange at a time (sync.Pool orders the
// hand-offs); gen is read and bumped only by that owner, and every
// pending entry and reply carries the gen current at registration.
//
// The guard exists because pending.Get / pending.Delete is not one
// atomic claim: a reply router can Get an entry, lose the race with the
// waiter's timeout (which deletes the entry, recycles the slot, and
// lets a new exchange register it), and only then send. Unpooled, that
// late send leaked a buffer to an abandoned channel; pooled, it would
// deliver a stale reply to the wrong exchange — so the new owner
// refuses any reply whose gen is not its own and returns the buffer to
// the pool. Generations only grow, so a stale gen can never collide
// with a live registration.
type waiterSlot struct {
	gen uint64
	ch  chan anonReply
}

// anonReply is a reply rendered for a blocked anonymous-RPC caller. The
// routing goroutine renders the envelope into a pooled buffer while the
// reply's own exchange is still live (its parse tree aliases that
// exchange's pooled body), and hands the buffer — ownership included —
// across the channel; the waiter wraps it in a response whose release
// duty the HTTP server assumes. Moving rendered bytes instead of a tree
// removes the deep Envelope.Detach clone (~25 allocations per exchange)
// the old hand-off paid. gen identifies the registration the reply
// answers (see waiterSlot).
type anonReply struct {
	buf     *xmlsoap.Buffer
	version soap.Version
	gen     uint64
}

// cxTask is the pooled admission unit of Serve: the bound closure is
// built once per task object and reused, so hijacking an exchange into
// the CxThread pool allocates nothing in the steady state. The closure
// releases the task back to the pool before routing, having copied the
// exchange out — the next Serve can only obtain the task after that
// copy (sync.Pool orders the hand-off), so the slot never races.
type cxTask struct {
	ex  *httpx.Exchange
	run func()
}

// New builds a MSG-Dispatcher. client must dial from the dispatcher's
// host; reg resolves logical names.
func New(reg *registry.Registry, client *httpx.Client, cfg Config) *Dispatcher {
	cfg = cfg.withDefaults()
	d := &Dispatcher{
		cfg:      cfg,
		registry: reg,
		client:   client,
		cx:       pool.New(pool.Config{Core: cfg.CxWorkers, Backlog: cfg.CxBacklog}),
		dests:    cmap.NewSized[*destQueue](cfg.StateShards),
		wsSlots:  make(chan struct{}, cfg.WsWorkers),
		pending:  cmap.NewSized[pendingReply](cfg.StateShards),
		selfEPR:  &wsa.EPR{Address: cfg.ReturnAddress},
		noneEPR:  &wsa.EPR{Address: wsa.None},
	}
	return d
}

// Start launches the CxThread pool.
func (d *Dispatcher) Start() error { return d.cx.Start() }

// Stop drains the CxThread pool and closes destination queues. In-flight
// deliveries finish; queued undelivered messages are dropped.
func (d *Dispatcher) Stop() {
	d.stopMu.Lock()
	if d.stopped {
		d.stopMu.Unlock()
		return
	}
	d.stopped = true
	d.stopMu.Unlock()
	d.cx.Stop()
	d.dests.Range(func(_ string, dq *destQueue) bool {
		dq.close()
		return true
	})
}

// Serve implements httpx.Handler. The exchange is hijacked and handed to
// a CxThread whole: the worker routes the message and replies on the
// exchange directly — 202 Accepted on admission, a fault otherwise —
// then finishes it. This is what removed the old per-request
// verdict-channel round trip between the HTTP goroutine and the worker;
// the connection's one reusable completion channel (inside the Exchange)
// is touched only on this hijacked path. The connection holds the pooled
// request body until Finish, so it stays valid for the whole routing
// pass (everything routing retains past it — pending-reply state, queued
// payloads, waiter replies — is detached or rendered into its own
// buffer).
func (d *Dispatcher) Serve(ex *httpx.Exchange) {
	ex.Hijack()
	t, _ := d.cxTasks.Get().(*cxTask)
	if t == nil {
		t = &cxTask{}
		t.run = func() {
			ex := t.ex
			t.ex = nil
			d.cxTasks.Put(t)
			defer ex.Finish()
			d.route(ex)
		}
	}
	t.ex = ex
	err := d.cx.TrySubmit(t.run)
	if err != nil {
		t.ex = nil
		d.cxTasks.Put(t)
		d.reject(ex, httpx.StatusServiceUnavailable, soap.FaultServer,
			"dispatcher overloaded: "+err.Error())
		ex.Finish()
	}
}

// route is the CxThread body: load the posted message's view and route
// it, replying verdicts on ex.
func (d *Dispatcher) route(ex *httpx.Exchange) {
	var v view
	if err := v.load(ex.Req.Body); err != nil {
		d.reject(ex, httpx.StatusBadRequest, soap.FaultClient, "invalid SOAP: "+err.Error())
		return
	}
	d.routeView(ex, &v, nil)
}

// Indices into view.fields, which follow wsa's canonical block order
// (To, Action, MessageID, RelatesTo, From, ReplyTo, FaultTo).
const (
	fieldTo        = 0
	fieldMessageID = 2
	fieldRelatesTo = 3
	fieldReplyTo   = 5
)

// view is one message as the routing leg reads it (see the package
// doc). fields holds the WS-Addressing values, "" where absent; the
// render source is body when the skim filled the view, env and h when
// the parser did.
type view struct {
	version soap.Version
	fields  [wsa.SkimFieldCount]string
	body    []byte
	env     *soap.Envelope
	h       wsa.Headers
}

// load fills v from raw envelope bytes: the skim first, the parser only
// on decline. Its error is a malformed envelope. A missing To is left as
// an empty field: routeView refuses it, and the bridge synthesizes
// addressing instead.
func (v *view) load(raw []byte) error {
	var sk wsa.Skim
	if wsa.SkimEnvelope(raw, &sk) {
		v.version, v.body = sk.Version, sk.Body
		sk.Fields(&v.fields)
		return nil
	}
	env, err := soap.Parse(raw)
	if err != nil {
		return err
	}
	v.version, v.env = env.Version, env
	// FromEnvelope's only error is the missing To.
	if h, err := wsa.FromEnvelope(env); err == nil {
		v.setHeaders(h)
	}
	return nil
}

// setHeaders makes h the view's addressing: the parse source renders it,
// and fields mirror it.
func (v *view) setHeaders(h *wsa.Headers) {
	v.h = *h
	v.fields = [...]string{h.To, h.Action, h.MessageID, h.RelatesTo,
		eprAddress(h.From), eprAddress(h.ReplyTo), eprAddress(h.FaultTo)}
}

func eprAddress(e *wsa.EPR) string {
	if e == nil {
		return ""
	}
	return e.Address
}

// render renders the message into a pooled buffer with To replaced by to
// and, when replyTo is non-nil, ReplyTo by it — the only two fields a
// routing leg rewrites. A parsed envelope may be mutated by the render,
// so each view renders once.
func (v *view) render(to string, replyTo *wsa.EPR) (*xmlsoap.Buffer, error) {
	buf := xmlsoap.GetBuffer()
	var b []byte
	var err error
	if v.env == nil {
		fields := v.fields
		fields[fieldTo] = to
		if replyTo != nil {
			fields[fieldReplyTo] = replyTo.Address
		}
		b, err = wsa.AppendSkimRewritten(buf.B, v.version, v.body, &fields)
	} else {
		h := v.h
		h.To = to
		if replyTo != nil {
			h.ReplyTo = replyTo
		}
		b, err = wsa.AppendRewritten(buf.B, v.env, &h)
	}
	if err != nil {
		xmlsoap.PutBuffer(buf)
		return nil, err
	}
	buf.B = b
	return buf, nil
}

// routeView classifies a loaded message as a reply or a request and
// routes it. "Responses from WSs are also treated like requests from
// clients": GetAndDelete makes the claim atomic, so exactly one router
// owns a pending entry and two copies of one reply can never both
// deliver. The claim probes with the aliased RelatesTo; cmap retains no
// key it only reads. On the WsThread's bridge ex is nil (verdicts are
// counted but sent nowhere) and sink batches reply admission (see
// replySink).
func (d *Dispatcher) routeView(ex *httpx.Exchange, v *view, sink *replySink) {
	if v.fields[fieldTo] == "" {
		d.reject(ex, httpx.StatusBadRequest, soap.FaultClient,
			"invalid WS-Addressing: "+wsa.ErrMissingTo.Error())
		return
	}
	if rel := v.fields[fieldRelatesTo]; rel != "" {
		if entry, ok := d.pending.GetAndDelete(rel); ok {
			d.routeReply(ex, v, entry, sink)
			return
		}
		d.UnmatchedReplies.Inc()
		// Fall through: a RelatesTo we never saw may still carry a
		// routable To (peer-managed conversation state).
	}
	d.routeRequest(ex, v)
}

// routeRequest forwards a client message toward the destination service.
func (d *Dispatcher) routeRequest(ex *httpx.Exchange, v *view) {
	destURL := v.fields[fieldTo]
	if logical, ok := strings.CutPrefix(destURL, LogicalScheme); ok {
		ep, err := d.registry.Resolve(logical)
		if err != nil {
			d.reject(ex, httpx.StatusNotFound, soap.FaultClient, err.Error())
			return
		}
		destURL = ep.URL
	}
	// A message addressed to the dispatcher itself with no matching
	// pending state would loop through the forwarder forever; refuse it.
	if destURL == d.cfg.ReturnAddress {
		d.reject(ex, httpx.StatusBadRequest, soap.FaultClient,
			"message addressed to the dispatcher itself has no routable correlation")
		return
	}

	// Remember where the real answer should go, then rewrite ReplyTo to
	// ourselves so the service replies through the dispatcher. When the
	// sender expects no reply, tell the service so (the None address)
	// instead of volunteering to receive replies we cannot route. An
	// anonymous ReplyTo means the caller is RPC-style: it waits on its
	// open HTTP connection for the correlated reply.
	replyAddr := v.fields[fieldReplyTo]
	expectReply := v.fields[fieldMessageID] != "" && replyAddr != "" && replyAddr != wsa.None
	anonymous := expectReply && replyAddr == wsa.Anonymous
	// The MessageID outlives this exchange twice over — as the
	// pending-reply key (up to PendingTTL) and riding the queued
	// outbound into the WsThread's bridge — while the view aliases the
	// pooled request body. One detached copy serves both.
	msgID := strings.Clone(v.fields[fieldMessageID])
	var waiter *waiterSlot
	replyTo := d.noneEPR
	if expectReply {
		entry := pendingReply{expires: d.cfg.Clock.Now().Add(d.cfg.PendingTTL)}
		if anonymous {
			// Anonymous replies rendezvous on a recycled slot. Anything
			// already in its channel is a stale delivery from a previous
			// life (nothing can address this registration before the Put
			// below): drain it now so it cannot occupy the 1-slot channel
			// against the genuine reply.
			waiter, _ = d.waiters.Get().(*waiterSlot)
			if waiter == nil {
				waiter = &waiterSlot{ch: make(chan anonReply, 1)}
			}
			select {
			case r := <-waiter.ch:
				xmlsoap.PutBuffer(r.buf)
			default:
			}
			entry.waiter, entry.wgen = waiter, waiter.gen
		} else {
			entry.replyTo = strings.Clone(replyAddr)
		}
		d.pending.Put(msgID, entry)
		replyTo = d.selfEPR
	}

	// The rendered buffer travels with the queued message and is released
	// by the WsThread after the delivery attempt.
	buf, err := v.render(destURL, replyTo)
	if err == nil && d.enqueue(outbound{
		payload:       buf,
		version:       v.version,
		toService:     true,
		origMessageID: msgID,
	}, destURL) {
		d.Accepted.Inc()
		if anonymous {
			d.awaitAnonymous(ex, msgID, waiter)
			return
		}
		d.accepted(ex)
		return
	}
	// Not admitted: roll the pending registration back.
	if expectReply {
		d.pending.Delete(msgID)
		if waiter != nil {
			d.recycleWaiter(waiter)
		}
	}
	if err != nil {
		d.reject(ex, httpx.StatusInternalServerError, soap.FaultServer, err.Error())
		return
	}
	xmlsoap.PutBuffer(buf)
	d.QueueDrops.Inc()
	d.reject(ex, httpx.StatusServiceUnavailable, soap.FaultServer,
		"destination queue full: "+destURL)
}

// awaitAnonymous holds the caller's connection until its reply arrives or
// the wait budget expires. This is Table 1's quadrant (2): it works only
// when the messaging service answers before the RPC-side timeout, and it
// ties up a CxThread for the whole wait — the "very limited" interaction.
// (A bridged message can land here with no exchange; the wait still
// happens — matching the old discard-the-response behavior — and an
// arriving reply's buffer is simply returned to the pool.)
func (d *Dispatcher) awaitAnonymous(ex *httpx.Exchange, msgID string, waiter *waiterSlot) {
	// The wait timer is drawn from a pool: an anonymous RPC exchange
	// happens per client call, and NewTimer per wait is three
	// allocations on the steady-state path. A pooled timer can carry a
	// stale fire from its previous life (a Virtual-clock fire lands in C
	// asynchronously even after Stop — see wsThread), so fires are
	// validated against the deadline and the remainder re-armed.
	clk := d.cfg.Clock
	deadline := clk.Now().Add(d.cfg.AnonymousWait)
	t, _ := d.timers.Get().(*clock.Timer)
	if t == nil {
		t = clk.NewTimer(d.cfg.AnonymousWait)
	} else {
		t.Reset(d.cfg.AnonymousWait)
	}
	for {
		select {
		case r := <-waiter.ch:
			if r.gen != waiter.gen {
				// A delivery addressed to a previous registration of
				// this recycled slot (the sender claimed the old
				// pending entry, then lost the race with its timeout).
				// Refuse it — delivering would answer this exchange
				// with another exchange's reply — and keep waiting.
				xmlsoap.PutBuffer(r.buf)
				d.DeliveryFailures.Inc()
				continue
			}
			// The reply arrives pre-rendered in a pooled buffer whose
			// ownership travels with it; handed to the exchange, the
			// connection releases it after writing the reply.
			if ex != nil {
				ex.Header().Set("Content-Type", r.version.ContentType())
				ex.ReplyBuffer(httpx.StatusOK, r.buf)
			} else {
				xmlsoap.PutBuffer(r.buf)
			}
			d.putTimer(t)
			d.recycleWaiter(waiter)
			return
		case <-t.C:
			if now := clk.Now(); now.Before(deadline) {
				// Stale fire inherited from the timer's previous owner;
				// wait out the remainder of this window.
				t.Reset(deadline.Sub(now))
				continue
			}
			d.pending.Delete(msgID)
			d.DeliveryFailures.Inc()
			d.fault(ex, httpx.StatusGatewayTimeout, soap.FaultServer,
				"no reply within the anonymous-response window")
			d.timers.Put(t)
			// A reply racing this timeout may already sit in the
			// channel; the recycle drains it back to the buffer pool
			// (and its generation bump retires any send still in
			// flight).
			d.recycleWaiter(waiter)
			return
		}
	}
}

// recycleWaiter retires a slot at the end of its wait and returns it to
// the pool. The generation bump comes first: any delivery still in
// flight carries the old gen, so it is either drained here or refused
// by the slot's next owner — never delivered across exchanges.
func (d *Dispatcher) recycleWaiter(w *waiterSlot) {
	w.gen++
	select {
	case r := <-w.ch:
		xmlsoap.PutBuffer(r.buf)
	default:
	}
	d.waiters.Put(w)
}

// putTimer stops and drains t before pooling it; a Virtual-clock fire
// that slips in after the drain is caught by the next owner's deadline
// check.
func (d *Dispatcher) putTimer(t *clock.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	d.timers.Put(t)
}

// routeReply forwards a service response to the original requester's
// ReplyTo (client endpoint or mailbox), or hands it to a blocked
// anonymous-RPC waiter. The delivering exchange (nil when the bridge
// routes) is acknowledged with 202. With a sink, the forwarded leg
// defers its queue admission to the burst's batched flush instead of
// paying one transaction here.
func (d *Dispatcher) routeReply(ex *httpx.Exchange, v *view, entry pendingReply, sink *replySink) {
	if entry.expires.Before(d.cfg.Clock.Now()) {
		d.reject(ex, httpx.StatusBadRequest, soap.FaultClient,
			"reply arrived after pending state expired")
		return
	}
	d.RepliesRouted.Inc()
	// The waiter gets the reply as addressed; a forwarded reply is
	// redirected at the original sender's ReplyTo.
	to := entry.replyTo
	if entry.waiter != nil {
		to = v.fields[fieldTo]
	}
	// Rendered now, while the view's body is live: the waiter consumes
	// the buffer on another exchange's goroutine, and ownership crosses
	// with the channel send or the queued message.
	buf, err := v.render(to, nil)
	if err != nil {
		d.reject(ex, httpx.StatusInternalServerError, soap.FaultServer, err.Error())
		return
	}
	msg := outbound{payload: buf, version: v.version}
	switch {
	case entry.waiter != nil:
		// The reply is stamped with the registration's generation: if
		// this send loses the race with the waiter's timeout and the
		// slot's recycling, whoever owns the slot next refuses it by
		// that stamp (see waiterSlot).
		select {
		case entry.waiter.ch <- anonReply{buf: buf, version: v.version, gen: entry.wgen}:
			d.RepliesDelivered.Inc()
		default:
			// The waiter gave up (timeout); the reply is dropped
			// exactly as a late RPC response would be.
			xmlsoap.PutBuffer(buf)
			d.DeliveryFailures.Inc()
		}
	case sink != nil:
		// Deferred admission: the burst's bridged replies admit together
		// through enqueueBatch when the sink flushes; Accepted and drop
		// accounting happen there. to is the pending entry's detached
		// copy, so holding it until the flush is safe.
		sink.add(to, msg)
	case d.enqueue(msg, to):
		d.Accepted.Inc()
	default:
		xmlsoap.PutBuffer(buf)
		d.QueueDrops.Inc()
		d.reject(ex, httpx.StatusServiceUnavailable, soap.FaultServer,
			"reply queue full: "+to)
		return
	}
	d.accepted(ex)
}

// accepted answers ex with 202, when there is an exchange to answer.
func (d *Dispatcher) accepted(ex *httpx.Exchange) {
	if ex != nil {
		ex.ReplyBytes(httpx.StatusAccepted, nil)
	}
}

// SweepPending drops expired reply-routing entries and returns how many
// were removed. The core server calls it periodically.
func (d *Dispatcher) SweepPending() int {
	now := d.cfg.Clock.Now()
	var dead []string
	d.pending.Range(func(id string, p pendingReply) bool {
		if p.expires.Before(now) {
			dead = append(dead, id)
		}
		return true
	})
	for _, id := range dead {
		d.pending.Delete(id)
	}
	return len(dead)
}

// PendingLen reports retained reply-routing entries (for tests/metrics).
func (d *Dispatcher) PendingLen() int { return d.pending.Len() }

// reject counts a refused message and answers ex with the fault.
func (d *Dispatcher) reject(ex *httpx.Exchange, status int, code, reason string) {
	d.Rejected.Inc()
	d.fault(ex, status, code, reason)
}

// fault answers ex with a SOAP 1.1 fault; on the bridge's exchange-less
// routing (ex nil) the verdict was already counted and goes nowhere.
func (d *Dispatcher) fault(ex *httpx.Exchange, status int, code, reason string) {
	if ex == nil {
		return
	}
	soap.ReplyFault(ex, status, code, reason)
}
