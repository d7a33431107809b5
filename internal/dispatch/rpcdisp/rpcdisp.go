// Package rpcdisp implements the RPC-Dispatcher: the first of the paper's
// two WS-Dispatcher variants, a SOAP-aware forwarding HTTP proxy.
//
// Per §4.2, it is deliberately simple: "It uses one thread to parse the
// HTTP header, copy the XML message from the request to a new XML document
// that is then used in the RPC invocation between RPC-Dispatcher and the
// target WS. After the RPC-Dispatcher receives the result from the WS [it]
// copies it to the response for the client and sends it back on the same
// connection." The dispatcher therefore holds two connections per in-flight
// call — one to the client, one to the service — which is exactly the
// scalability limit Table 1 row (1) and Figures 4–5 measure.
//
// Request URLs take the form  POST /rpc/<logical-name> ; the logical name
// is resolved through the shared Registry.
package rpcdisp

import (
	"errors"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/httpx"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/stats"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// PathPrefix is the URL prefix carrying the logical name: a call to
// service "echo" posts to PathPrefix+"echo".
const PathPrefix = "/rpc/"

// Config tunes a Dispatcher.
type Config struct {
	// Clock drives timeouts; defaults to the wall clock.
	Clock clock.Clock
	// ForwardTimeout bounds the dispatcher→service exchange. 0 means
	// 25s — slightly under the conventional 30s client budget so the
	// dispatcher can still report 504 on the original connection.
	ForwardTimeout time.Duration
	// Validate enables SOAP envelope inspection before forwarding (a
	// standard HTTP proxy "will not be able to do any inspection of
	// the SOAP traffic"; the WSD can). Malformed envelopes are refused
	// with a Client fault instead of burdening the service.
	Validate bool
	// MarkDeadOnError flags endpoints dead in the registry after a
	// forwarding failure so subsequent calls fail over.
	MarkDeadOnError bool
}

// Dispatcher is the RPC forwarding proxy. It implements httpx.Handler.
type Dispatcher struct {
	cfg      Config
	registry *registry.Registry
	client   *httpx.Client

	// Forwarded counts successfully proxied calls; LookupFailures,
	// BadRequests and ForwardFailures classify refusals. Failovers
	// counts retries onto a second backend after a failed attempt
	// (whether or not the retry then succeeded).
	Forwarded       stats.Counter
	LookupFailures  stats.Counter
	BadRequests     stats.Counter
	ForwardFailures stats.Counter
	Failovers       stats.Counter
	// Latency records end-to-end proxy time per forwarded call.
	Latency stats.Histogram
}

// New builds a dispatcher forwarding through client (which carries the
// dialer bound to the dispatcher's host) and resolving names in reg.
func New(reg *registry.Registry, client *httpx.Client, cfg Config) *Dispatcher {
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall
	}
	if cfg.ForwardTimeout == 0 {
		cfg.ForwardTimeout = 25 * time.Second
	}
	return &Dispatcher{cfg: cfg, registry: reg, client: client}
}

// Serve implements httpx.Handler: resolve, forward, relay.
func (d *Dispatcher) Serve(ex *httpx.Exchange) {
	start := d.cfg.Clock.Now()

	logical, ok := strings.CutPrefix(ex.Req.Path, PathPrefix)
	if !ok || logical == "" || strings.Contains(logical, "/") {
		d.BadRequests.Inc()
		soap.ReplyFault(ex, httpx.StatusNotFound, soap.FaultClient,
			"request path must be "+PathPrefix+"<logical-service-name>")
		return
	}

	if d.cfg.Validate {
		if d.validate(ex) {
			d.BadRequests.Inc()
			return
		}
	}

	// Resolve up to two live candidates so a failed forward can retry
	// once on a second backend without going back to the registry.
	var eps [2]*registry.Endpoint
	n, err := d.registry.ResolveN(logical, eps[:])
	if err != nil {
		d.LookupFailures.Inc()
		if errors.Is(err, registry.ErrNoLiveEndpoint) {
			soap.ReplyFault(ex, httpx.StatusServiceUnavailable, soap.FaultServer,
				"no live endpoint for "+logical)
			return
		}
		soap.ReplyFault(ex, httpx.StatusNotFound, soap.FaultClient,
			"unknown logical service "+logical+": "+err.Error())
		return
	}

	var lastErr error
	lastURL := ""
	for i := 0; i < n; i++ {
		ep := eps[i]
		addr, path, err := httpx.SplitURL(ep.URL)
		if err != nil {
			lastErr = errors.New("registry holds invalid endpoint")
			lastURL = ep.URL
			continue
		}
		if i > 0 {
			d.Failovers.Inc()
		}

		// Copy the XML message into a fresh request (the paper's "copy
		// the XML message from the request to a new XML document"):
		// hop-by-hop headers must not leak through a proxy. The
		// exchange still owns the body, so a failed attempt leaves it
		// intact for the retry.
		fwd := httpx.NewRequest("POST", path, ex.Req.Body)
		if ct := ex.Req.Header.Get("Content-Type"); ct != "" {
			fwd.Header.Set("Content-Type", ct)
		}
		if sa := ex.Req.Header.Get("SOAPAction"); sa != "" {
			fwd.Header.Set("SOAPAction", sa)
		}

		d.registry.Acquire(ep)
		resp, err := d.client.DoTimeout(addr, fwd, d.cfg.ForwardTimeout)
		d.registry.Release(ep)
		if err != nil {
			lastErr, lastURL = err, ep.URL
			if d.cfg.MarkDeadOnError {
				d.registry.MarkDead(logical, ep.URL)
			}
			continue
		}

		// Relay the service's answer on the original connection. The
		// service response's pooled body is not copied: the release duty
		// moves with the bytes — parked on the exchange's Defer hook, which
		// runs after the reply is written — so one buffer crosses two hops
		// with one release. That release also hands the forwarding
		// connection (which owns resp's struct) back to the pool, so the
		// copied Content-Type and the relayed body stay alive exactly as
		// long as they are needed and not a write longer.
		ex.Defer(resp.TakeBody())
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			ex.Header().Set("Content-Type", ct)
		}
		ex.ReplyBytes(resp.Status, resp.Body)
		d.Forwarded.Inc()
		d.Latency.Observe(d.cfg.Clock.Since(start))
		return
	}

	// Every candidate failed: one ForwardFailures tick per exchange, not
	// per attempt, so failure-rate counters still mean "calls refused".
	d.ForwardFailures.Inc()
	soap.ReplyFault(ex, httpx.StatusBadGateway, soap.FaultServer,
		"forward to "+lastURL+" failed: "+lastErr.Error())
}

// validate checks the body parses as SOAP and carries no mustUnderstand
// header block the dispatcher would silently violate. It replies with a
// fault and reports true when the message must be refused.
//
// Skim-first: an envelope the wsa skim accepts is by construction
// well-formed SOAP whose only header blocks are attribute-less
// WS-Addressing fields, so no mustUnderstand marking is possible and
// the relay leg never builds a parse tree for canonical traffic.
// Everything else falls through to the full inspection below.
func (d *Dispatcher) validate(ex *httpx.Exchange) bool {
	var sk wsa.Skim
	if wsa.SkimEnvelope(ex.Req.Body, &sk) {
		return false
	}
	env, err := soap.Parse(ex.Req.Body)
	if err != nil {
		soap.ReplyFault(ex, httpx.StatusBadRequest, soap.FaultClient,
			"invalid SOAP envelope: "+err.Error())
		return true
	}
	// The RPC dispatcher understands no header blocks itself; it only
	// relays. Blocks targeted at intermediaries with mustUnderstand
	// would be silently ignored, so refuse them.
	if v := env.MustUnderstandViolation(); v != nil {
		soap.ReplyFault(ex, httpx.StatusBadRequest, soap.FaultMustUnderstand,
			"header block "+v.Name.String()+" not understood by intermediary")
		return true
	}
	return false
}

// DirectoryPage returns a WSDL-ish directory page: the browseable service list
// the paper imagines for the registry ("a simple browseable list of WSDL
// files with metadata"). Mounted by the core server at /registry.
func DirectoryPage(reg *registry.Registry) []byte {
	root := xmlsoap.New("urn:wsd:registry", "services")
	for _, name := range reg.Services() {
		entry, ok := reg.Lookup(name)
		if !ok {
			continue
		}
		svc := xmlsoap.New("urn:wsd:registry", "service").SetAttr("", "name", name)
		for _, ep := range entry.Endpoints() {
			e := xmlsoap.NewText("urn:wsd:registry", "endpoint", ep.URL)
			if !ep.Alive() {
				e.SetAttr("", "alive", "false")
			}
			svc.Add(e)
		}
		if doc := entry.Doc(); doc != nil {
			svc.Add(xmlsoap.NewText("urn:wsd:registry", "documentation", doc.Documentation))
		}
		root.Add(svc)
	}
	out, err := xmlsoap.MarshalDoc(root)
	if err != nil {
		return []byte("<services/>")
	}
	return out
}
