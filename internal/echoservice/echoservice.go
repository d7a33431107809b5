// Package echoservice implements the Web Service under test in the
// paper's evaluation: an echo service, "essentially ... very similar to
// the ping command" (§4.3). It comes in the two styles Table 1
// distinguishes:
//
//   - RPC: answers echo calls on the same connection (rows 1 and 3);
//   - Async: accepts one-way WS-Addressing messages with 202 Accepted and
//     sends the reply as a *new* HTTP request to the sender's ReplyTo
//     (rows 2 and 4) — which is precisely what a firewall blocks when the
//     client has no reachable endpoint.
//
// A configurable ServiceTime models host speed (the paper's inriaSlow
// P3@1GHz vs inriaFast P4@3.4GHz).
package echoservice

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/httpx"
	"repro/internal/pool"
	"repro/internal/soap"
	"repro/internal/stats"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// EchoNS is the echo service namespace.
const EchoNS = "urn:wsd:echo"

// EchoOp is the RPC operation name.
const EchoOp = "echoMessage"

// RPC is the request/response echo service. It implements httpx.Handler.
type RPC struct {
	// Clock drives the simulated service time.
	Clock clock.Clock
	// Version selects the SOAP version of responses.
	Version soap.Version
	// ServiceTime is the simulated per-call processing cost.
	ServiceTime time.Duration

	// Handled counts answered calls; Rejected counts malformed ones.
	Handled  stats.Counter
	Rejected stats.Counter

	// respName caches the "<op>Response" wrapper name for the operation
	// last served: an echo service sees one operation for its lifetime,
	// so the concatenation (and the detached copy of the operation name
	// it is compared against) amortizes to zero.
	respName atomic.Pointer[respName]
	// scratch recycles the per-call response skeleton (see rpcScratch).
	scratch sync.Pool
}

// respName is a cached operation → wrapper-name pair. op is detached
// (the served operation name aliases the request buffer).
type respName struct {
	op, resp string
}

// rpcScratch is the reusable response skeleton of one echo call: the
// wrapper element whose children are spliced straight from the parsed
// request (they die with the exchange, and the render completes inside
// Serve) and the envelope around it. Nothing survives the call, so the
// whole response costs zero steady-state allocations.
type rpcScratch struct {
	wrapper xmlsoap.Element
	body    [1]*xmlsoap.Element
	env     soap.Envelope
}

// NewRPC returns an RPC echo service.
func NewRPC(clk clock.Clock, serviceTime time.Duration) *RPC {
	if clk == nil {
		clk = clock.Wall
	}
	return &RPC{Clock: clk, Version: soap.V11, ServiceTime: serviceTime}
}

// Serve implements httpx.Handler.
func (s *RPC) Serve(ex *httpx.Exchange) {
	env, err := soap.Parse(ex.Req.Body)
	if err != nil {
		s.Rejected.Inc()
		soap.ReplyFault(ex, httpx.StatusBadRequest, soap.FaultClient, "bad envelope: "+err.Error())
		return
	}
	// The checks soap.ParseRPC would perform, without building a Call
	// nobody reads: the echo response needs only the wrapper name and
	// the parameter elements, both already in the parsed tree.
	wrapper := env.BodyElement()
	if wrapper == nil {
		s.Rejected.Inc()
		soap.ReplyFault(ex, httpx.StatusBadRequest, soap.FaultClient, "bad RPC call: empty RPC body")
		return
	}
	if f, ok := soap.AsFault(env); ok {
		s.Rejected.Inc()
		soap.ReplyFault(ex, httpx.StatusBadRequest, soap.FaultClient, "bad RPC call: "+f.Error())
		return
	}
	if s.ServiceTime > 0 {
		s.Clock.Sleep(s.ServiceTime)
	}
	// Echo every parameter back, unchanged — the parsed parameter
	// elements are spliced into the response as-is (they die with this
	// exchange, and the render below happens before Serve returns).
	// Render straight into a pooled buffer that the connection releases
	// after writing the reply — no per-call body or struct allocation.
	rn := s.respName.Load()
	if rn == nil || rn.op != wrapper.Name.Local {
		rn = &respName{
			op:   strings.Clone(wrapper.Name.Local),
			resp: wrapper.Name.Local + "Response",
		}
		s.respName.Store(rn)
	}
	sc, _ := s.scratch.Get().(*rpcScratch)
	if sc == nil {
		sc = &rpcScratch{}
	}
	sc.wrapper = xmlsoap.Element{
		Name:     xmlsoap.Name{Space: wrapper.Name.Space, Local: rn.resp},
		Children: wrapper.Children,
	}
	sc.body[0] = &sc.wrapper
	sc.env = soap.Envelope{Version: env.Version, Body: sc.body[:1]}
	err = ex.Reply(httpx.StatusOK, func(dst []byte) ([]byte, error) {
		return wsa.AppendEnvelope(dst, &sc.env)
	})
	sc.wrapper = xmlsoap.Element{}
	sc.body[0] = nil
	sc.env = soap.Envelope{}
	s.scratch.Put(sc)
	if err != nil {
		soap.ReplyFault(ex, httpx.StatusInternalServerError, soap.FaultServer, err.Error())
		return
	}
	s.Handled.Inc()
	ex.Header().Set("Content-Type", env.Version.ContentType())
}

// Async is the message-style echo service. It implements httpx.Handler.
type Async struct {
	// Clock drives service time and reply timeouts.
	Clock clock.Clock
	// Client posts reply messages to the requester's ReplyTo address;
	// its dialer is bound to the service's host.
	Client *httpx.Client
	// ServiceTime is the simulated per-message processing cost.
	ServiceTime time.Duration
	// ReplyTimeout bounds each reply delivery attempt; this is the
	// stall the service pays per message when the ReplyTo is
	// firewalled (Figure 6's "response blocked" series). 0 means 21s.
	ReplyTimeout time.Duration
	// OwnAddress is this service's address, stamped as reply From.
	OwnAddress string

	// replyPool, when set via LimitReplies, bounds concurrent reply
	// deliveries the way a 2004 servlet container's thread pool did.
	// With every reply stalled at a firewall, the pool saturates and
	// new messages are refused — "the Web Service tried to send back
	// response but the connection was discarded which led to fewer
	// messages accepted by the Web Service" (Figure 6).
	replyPool *pool.Pool

	// Accepted counts messages taken in; RepliesSent / ReplyFailures
	// split the outcome of the reply leg; RefusedBusy counts messages
	// turned away because the reply pool was saturated.
	Accepted      stats.Counter
	Rejected      stats.Counter
	RepliesSent   stats.Counter
	ReplyFailures stats.Counter
	RefusedBusy   stats.Counter
}

// LimitReplies installs a bounded reply pool: at most workers concurrent
// reply deliveries with backlog queued behind them. Must be called before
// serving; Close releases the pool.
func (s *Async) LimitReplies(workers, backlog int) error {
	s.replyPool = pool.New(pool.Config{Core: workers, Backlog: backlog})
	return s.replyPool.Start()
}

// Close stops the reply pool, if any.
func (s *Async) Close() {
	if s.replyPool != nil {
		s.replyPool.Stop()
	}
}

// NewAsync returns a message-style echo service sending replies through
// client.
func NewAsync(clk clock.Clock, client *httpx.Client, serviceTime time.Duration) *Async {
	if clk == nil {
		clk = clock.Wall
	}
	return &Async{Clock: clk, Client: client, ServiceTime: serviceTime, ReplyTimeout: 21 * time.Second}
}

// Serve implements httpx.Handler: accept with 202, then reply
// asynchronously to the message's ReplyTo.
func (s *Async) Serve(ex *httpx.Exchange) {
	env, err := soap.Parse(ex.Req.Body)
	if err != nil {
		s.Rejected.Inc()
		soap.ReplyFault(ex, httpx.StatusBadRequest, soap.FaultClient, "bad envelope: "+err.Error())
		return
	}
	h, err := wsa.FromEnvelope(env)
	if err != nil {
		s.Rejected.Inc()
		soap.ReplyFault(ex, httpx.StatusBadRequest, soap.FaultClient, "bad addressing: "+err.Error())
		return
	}
	// The reply leg runs outside the accept path, as in the paper's
	// message-oriented design: acceptance is decoupled from delivery.
	// env (and through it ex.Req.Body, which the parsed tree aliases)
	// must stay live until the reply renders, which outlasts this Serve
	// call — so the reply leg takes over the pooled body's release duty
	// and returns the buffer when it finishes. Taking happens before the
	// submit so the worker cannot race the connection's end-of-exchange
	// release; the worker holds the parsed data only, never the reused
	// Exchange.
	release := ex.TakeBody()
	if s.replyPool != nil {
		if err := s.replyPool.TrySubmit(func() { s.reply(env, h, release) }); err != nil {
			release()
			s.RefusedBusy.Inc()
			soap.ReplyFault(ex, httpx.StatusServiceUnavailable, soap.FaultServer,
				"service reply workers exhausted")
			return
		}
	} else {
		go s.reply(env, h, release)
	}
	s.Accepted.Inc()
	ex.ReplyBytes(httpx.StatusAccepted, nil)
}

// reply builds and posts the echo reply. Failures (firewalled ReplyTo,
// missing ReplyTo) are counted, not retried — retry policy belongs to the
// reliable-delivery layer. release returns the request-body buffer that
// env and h alias; it runs when the reply leg is done with them.
func (s *Async) reply(env *soap.Envelope, h *wsa.Headers, release func()) {
	defer release()
	if s.ServiceTime > 0 {
		s.Clock.Sleep(s.ServiceTime)
	}
	if h.ReplyTo == nil || h.ReplyTo.Address == "" || h.ReplyTo.Address == wsa.None {
		return // fire-and-forget message
	}
	// The reply echoes the request body in place: no clone is needed
	// because the serializer reads the tree without mutating it and env
	// is not touched after this point.
	echoed := env.BodyElement()
	if echoed == nil {
		echoed = xmlsoap.New(EchoNS, "echoResponse")
	}
	out := soap.New(env.Version).SetBody(echoed)
	rh := &wsa.Headers{
		To:        h.ReplyTo.Address,
		Action:    EchoNS + ":echoReply",
		MessageID: wsa.NewMessageID(),
		RelatesTo: h.MessageID,
	}
	if s.OwnAddress != "" {
		rh.From = &wsa.EPR{Address: s.OwnAddress}
	}
	buf := xmlsoap.GetBuffer()
	defer xmlsoap.PutBuffer(buf)
	b, err := wsa.AppendRewritten(buf.B, out, rh)
	if err != nil {
		s.ReplyFailures.Inc()
		return
	}
	buf.B = b
	addr, path, err := httpx.SplitURL(h.ReplyTo.Address)
	if err != nil {
		s.ReplyFailures.Inc()
		return
	}
	post := httpx.NewRequest("POST", path, b)
	post.Header.Set("Content-Type", env.Version.ContentType())
	timeout := s.ReplyTimeout
	if timeout == 0 {
		timeout = 21 * time.Second
	}
	resp, err := s.Client.DoTimeout(addr, post, timeout)
	var status int
	if resp != nil {
		// Status is read before Release: the release returns the reused
		// Response struct with its connection.
		status = resp.Status
		resp.Release() // ack body (if any) is unused
	}
	if err != nil || status >= 300 {
		s.ReplyFailures.Inc()
		return
	}
	s.RepliesSent.Inc()
}
