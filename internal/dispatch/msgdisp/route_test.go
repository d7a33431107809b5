package msgdisp

import (
	"bytes"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/echoservice"
	"repro/internal/httpx"
	"repro/internal/registry"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// form is the wire form a routing case is run in. Canonical messages take
// the skim front end; the other two are declined by it and parsed.
type form int

const (
	canonical form = iota // the stack's own serializer output
	entity                // the body's "A" spelled as a character reference
	foreign               // an application header block before the addressing
)

func (f form) String() string { return [...]string{"canonical", "entity", "foreign"}[f] }

// foreignBlock is the header block the foreign form adds. It shares the
// body's namespace, so it takes the generated prefix the body reuses and
// removing it from a wire leaves the canonical bytes.
const foreignBlock = `<ns1:Trace xmlns:ns1="` + echoservice.EchoNS + `">tid-7</ns1:Trace>`

const (
	returnAddr = "http://wsd:9100/msg"
	clientAddr = "http://cli:90/msg"
)

// envelope renders a message with addressing h (nil: none) around a body
// element named local, in form f, and checks that the skim accepts it
// exactly when f is canonical.
func (f form) envelope(tb testing.TB, h *wsa.Headers, local string) []byte {
	tb.Helper()
	env := soap.New(soap.V11).SetBody(xmlsoap.NewText(echoservice.EchoNS, local, "mAm"))
	if f == foreign {
		env.AddHeader(xmlsoap.NewText(echoservice.EchoNS, "Trace", "tid-7"))
	}
	if h != nil {
		h.Apply(env)
	}
	raw, err := env.Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	if f == entity {
		raw = bytes.Replace(raw, []byte(">mAm<"), []byte(">m&#65;m<"), 1)
	}
	var sk wsa.Skim
	if wsa.SkimEnvelope(raw, &sk) != (f == canonical) {
		tb.Fatalf("%s form: skim accepted = %v", f, f != canonical)
	}
	return raw
}

// request addresses a client message to the logical service.
func request(replyTo string) *wsa.Headers {
	h := &wsa.Headers{To: LogicalScheme + "svc", Action: "urn:echo", MessageID: "urn:test:request"}
	if replyTo != "" {
		h.ReplyTo = &wsa.EPR{Address: replyTo}
	}
	return h
}

// reply addresses the service's answer to request.
func reply(to string) *wsa.Headers {
	return &wsa.Headers{To: to, MessageID: "urn:test:reply", RelatesTo: "urn:test:request"}
}

// skewClock is the wall clock with Now shifted by a test-controlled
// offset, so pending state can expire without waiting for it.
type skewClock struct {
	clock.Real
	skew atomic.Int64
}

func (c *skewClock) Now() time.Time                  { return time.Now().Add(time.Duration(c.skew.Load())) }
func (c *skewClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// answer is one HTTP answer the dispatcher gave a post: status, body with
// the foreign block and generated message IDs normalized away, and the
// fault string when the body is a fault.
type answer struct {
	Status int
	Body   string
	Fault  string
}

// counts are the dispatcher counters a routing verdict moves.
type counts struct {
	Accepted, Rejected, Forwarded, Routed, Delivered, Failures, Unmatched int64
}

// outcome is everything observable about one routing run.
type outcome struct {
	Answers []answer
	Service []string // normalized wires forwarded to the service
	Client  []string // normalized wires forwarded to the client endpoint
	Counts  counts
	Pending int
	Foreign int // wires and answers that carried the foreign block
}

var generatedID = regexp.MustCompile(`urn:uuid:[0-9a-f-]{36}`)

// normalize strips what legitimately differs between runs: the foreign
// block and message IDs the dispatcher mints.
func normalize(b []byte) string {
	return generatedID.ReplaceAllString(strings.ReplaceAll(string(b), foreignBlock, ""), "urn:uuid:*")
}

// routeRig deploys a dispatcher between a service and a client endpoint
// over in-memory pipes. The service records what it is sent and acks it
// with 202, or answers 200 with a fixed body on the delivery connection.
type routeRig struct {
	clk  *skewClock
	disp *Dispatcher
	cli  *httpx.Client

	mu      sync.Mutex
	service []string
	client  []string
	foreign int
}

func newRouteRig(t *testing.T, cfg Config, serviceAnswer []byte) *routeRig {
	r := &routeRig{clk: &skewClock{}}
	nets := memNet{"wsd:9100": newMemListener(), "svc:80": newMemListener(), "cli:90": newMemListener()}
	serve := func(addr string, h httpx.Handler) {
		srv := httpx.NewServer(h, httpx.ServerConfig{})
		srv.Start(nets[addr])
		t.Cleanup(func() { srv.Close() })
	}
	serve("svc:80", httpx.HandlerFunc(func(ex *httpx.Exchange) {
		r.record(&r.service, ex.Req.Body)
		if serviceAnswer == nil {
			ex.ReplyBytes(httpx.StatusAccepted, nil)
			return
		}
		ex.Header().Set("Content-Type", soap.V11.ContentType())
		ex.ReplyBytes(httpx.StatusOK, serviceAnswer)
	}))
	serve("cli:90", httpx.HandlerFunc(func(ex *httpx.Exchange) {
		r.record(&r.client, ex.Req.Body)
		ex.ReplyBytes(httpx.StatusAccepted, nil)
	}))

	reg := registry.New(registry.PolicyFirst, nil)
	reg.Register("svc", "http://svc:80/msg")
	cfg.Clock = r.clk
	cfg.ReturnAddress = returnAddr
	r.disp = New(reg, httpx.NewClient(nets, httpx.ClientConfig{}), cfg)
	if err := r.disp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.disp.Stop)
	serve("wsd:9100", r.disp)

	r.cli = httpx.NewClient(nets, httpx.ClientConfig{RequestTimeout: 10 * time.Second})
	t.Cleanup(r.cli.Close)
	return r
}

func (r *routeRig) record(dst *[]string, wire []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.foreign += bytes.Count(wire, []byte(foreignBlock))
	*dst = append(*dst, normalize(wire))
}

// post sends raw to the dispatcher and returns its answer. It is safe to
// call from a goroutine.
func (r *routeRig) post(t *testing.T, raw []byte) answer {
	req := httpx.NewRequest("POST", "/msg", raw)
	req.Header.Set("Content-Type", soap.V11.ContentType())
	resp, err := r.cli.Do("wsd:9100", req)
	if err != nil {
		t.Error(err)
		return answer{}
	}
	defer resp.Release()
	a := answer{Status: resp.Status, Body: normalize(resp.Body)}
	r.mu.Lock()
	r.foreign += bytes.Count(resp.Body, []byte(foreignBlock))
	r.mu.Unlock()
	if env, err := soap.Parse(resp.Body); err == nil {
		if f, ok := soap.AsFault(env); ok {
			a.Fault = strings.Clone(f.Reason) // the body is released on return
		}
	}
	return a
}

func (r *routeRig) outcome(answers []answer) outcome {
	d := r.disp
	r.mu.Lock()
	defer r.mu.Unlock()
	return outcome{
		Answers: answers,
		Service: append([]string(nil), r.service...),
		Client:  append([]string(nil), r.client...),
		Counts: counts{
			Accepted:  d.Accepted.Value(),
			Rejected:  d.Rejected.Value(),
			Forwarded: d.ForwardedToWS.Value(),
			Routed:    d.RepliesRouted.Value(),
			Delivered: d.RepliesDelivered.Value(),
			Failures:  d.DeliveryFailures.Value(),
			Unmatched: d.UnmatchedReplies.Value(),
		},
		Pending: d.PendingLen(),
		Foreign: r.foreign,
	}
}

// TestRoutingFrontEndsAgree runs every verdict the router gives once per
// wire form — canonical (skim front end), and with a character reference
// or a foreign header block (parse front end) — and requires the same
// HTTP statuses, fault strings, counters, pending state and forwarded
// wire bytes from all three. The foreign block may be the only difference
// on the wire, and it must reach the wire wherever the message is
// re-rendered from its own headers.
func TestRoutingFrontEndsAgree(t *testing.T) {
	// send posts the messages in order, each built in the run's form.
	send := func(msgs ...*wsa.Headers) func(*testing.T, *routeRig, form) []answer {
		return func(t *testing.T, r *routeRig, f form) []answer {
			var out []answer
			for i, h := range msgs {
				local := "echo"
				if i > 0 {
					local = "echoResponse"
				}
				out = append(out, r.post(t, f.envelope(t, h, local)))
			}
			return out
		}
	}
	cases := []struct {
		name string
		cfg  Config
		// bridge makes the service answer 200 on the delivery connection
		// instead of acking with 202: a response carrying addressing, or
		// a plain RPC response when addressing is nil.
		bridge     bool
		addressing *wsa.Headers
		run        func(*testing.T, *routeRig, form) []answer
		status     []int
		fault      string
		counts     counts
		// pending, service and client are the settled pending entries
		// and wires forwarded each way; foreign counts the foreign
		// blocks seen in the foreign form.
		pending, service, client, foreign int
	}{{
		name:   "one-way forward",
		run:    send(request("")),
		status: []int{202}, counts: counts{Accepted: 1, Forwarded: 1},
		service: 1, foreign: 1,
	}, {
		name:   "expect-reply forward",
		run:    send(request(clientAddr)),
		status: []int{202}, counts: counts{Accepted: 1, Forwarded: 1},
		pending: 1, service: 1, foreign: 1,
	}, {
		name: "anonymous wait answered",
		run: func(t *testing.T, r *routeRig, f form) []answer {
			raw := f.envelope(t, request(wsa.Anonymous), "echo")
			held := make(chan answer, 1)
			go func() { held <- r.post(t, raw) }()
			waitFor(t, func() bool { return len(r.outcome(nil).Service) == 1 })
			ack := r.post(t, f.envelope(t, reply(returnAddr), "echoResponse"))
			return []answer{<-held, ack}
		},
		status: []int{200, 202}, counts: counts{Accepted: 1, Forwarded: 1, Routed: 1, Delivered: 1},
		service: 1, foreign: 2,
	}, {
		name:   "anonymous wait times out",
		cfg:    Config{AnonymousWait: 50 * time.Millisecond},
		run:    send(request(wsa.Anonymous)),
		status: []int{504}, fault: "no reply within the anonymous-response window",
		counts:  counts{Accepted: 1, Forwarded: 1, Failures: 1},
		service: 1, foreign: 1,
	}, {
		name:   "matched reply",
		run:    send(request(clientAddr), reply(returnAddr)),
		status: []int{202, 202}, counts: counts{Accepted: 2, Forwarded: 1, Routed: 1, Delivered: 1},
		service: 1, client: 1, foreign: 2,
	}, {
		name: "unmatched reply forwarded",
		run: send(&wsa.Headers{To: LogicalScheme + "svc", MessageID: "urn:test:reply",
			RelatesTo: "urn:test:unknown"}),
		status: []int{202}, counts: counts{Accepted: 1, Forwarded: 1, Unmatched: 1},
		service: 1, foreign: 1,
	}, {
		name: "expired reply",
		cfg:  Config{PendingTTL: time.Minute},
		run: func(t *testing.T, r *routeRig, f form) []answer {
			sent := r.post(t, f.envelope(t, request(clientAddr), "echo"))
			r.clk.skew.Add(int64(2 * time.Minute))
			return []answer{sent, r.post(t, f.envelope(t, reply(returnAddr), "echoResponse"))}
		},
		status: []int{202, 400}, fault: "reply arrived after pending state expired",
		counts:  counts{Accepted: 1, Rejected: 1, Forwarded: 1},
		service: 1, foreign: 1,
	}, {
		name:   "self-addressed refused",
		run:    send(&wsa.Headers{To: returnAddr, MessageID: "urn:test:request"}),
		status: []int{400}, fault: "message addressed to the dispatcher itself has no routable correlation",
		counts: counts{Rejected: 1},
	}, {
		name:   "unknown logical name refused",
		run:    send(&wsa.Headers{To: LogicalScheme + "nosuch", MessageID: "urn:test:request"}),
		status: []int{404}, fault: registry.ErrUnknownService.Error(),
		counts: counts{Rejected: 1},
	}, {
		name:   "missing To refused",
		run:    send(&wsa.Headers{MessageID: "urn:test:request"}),
		status: []int{400}, fault: "invalid WS-Addressing: " + wsa.ErrMissingTo.Error(),
		counts: counts{Rejected: 1},
	}, {
		name:   "bridged RPC response",
		bridge: true,
		run:    send(request(clientAddr)),
		status: []int{202}, counts: counts{Accepted: 2, Forwarded: 1, Routed: 1, Delivered: 1},
		service: 1, client: 1, foreign: 1,
	}, {
		name:       "bridged addressed response",
		bridge:     true,
		addressing: reply(returnAddr),
		run:        send(request(clientAddr)),
		status:     []int{202}, counts: counts{Accepted: 2, Forwarded: 1, Routed: 1, Delivered: 1},
		service: 1, client: 1, foreign: 2,
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var runs [3]outcome
			for _, f := range []form{canonical, entity, foreign} {
				var serviceAnswer []byte
				if tc.bridge {
					serviceAnswer = f.envelope(t, tc.addressing, "echoResponse")
				}
				r := newRouteRig(t, tc.cfg, serviceAnswer)
				answers := tc.run(t, r, f)
				// Deliveries settle asynchronously; wait for the counted
				// end state, then compare everything.
				settled := func(o outcome) bool {
					return o.Counts == tc.counts && o.Pending == tc.pending &&
						len(o.Service) == tc.service && len(o.Client) == tc.client
				}
				deadline := time.Now().Add(5 * time.Second)
				o := r.outcome(answers)
				for !settled(o) && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
					o = r.outcome(answers)
				}
				if !settled(o) {
					t.Fatalf("%s form did not settle: counts %+v pending %d service %d client %d",
						f, o.Counts, o.Pending, len(o.Service), len(o.Client))
				}
				var status []int
				for _, a := range answers {
					status = append(status, a.Status)
					if a.Status >= 400 && !strings.Contains(a.Fault, tc.fault) {
						t.Errorf("%s form: fault %q, want %q", f, a.Fault, tc.fault)
					}
				}
				if !reflect.DeepEqual(status, tc.status) {
					t.Errorf("%s form: statuses %v, want %v", f, status, tc.status)
				}
				want := 0
				if f == foreign {
					want = tc.foreign
				}
				if o.Foreign != want {
					t.Errorf("%s form: foreign block on %d wires, want %d", f, o.Foreign, want)
				}
				runs[f] = o
			}
			for _, f := range []form{entity, foreign} {
				o := runs[f]
				o.Foreign = runs[canonical].Foreign
				if !reflect.DeepEqual(o, runs[canonical]) {
					t.Errorf("%s form routed differently from canonical:\n%+v\n%+v", f, o, runs[canonical])
				}
			}
		})
	}
}
