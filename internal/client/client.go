// Package client is the peer-side library: everything a Web Service peer
// needs to interact with the WS-Dispatcher stack — SOAP-RPC calls
// (optionally through the RPC-Dispatcher), one-way asynchronous sends
// (through the MSG-Dispatcher), mailbox management and polling against
// WS-MsgBox, and a Conversation helper that composes them into the
// "reliable and long running conversations through firewalls" of the
// paper's abstract.
package client

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/clock"
	"repro/internal/httpx"
	"repro/internal/msgbox"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// RPC performs SOAP-RPC calls over HTTP. Calls are rendered with
// soap.AppendRPC and responses read with soap.DecodeRPCResponse, so a
// call builds no element tree on either leg.
type RPC struct {
	// HTTP is the transport (its dialer is bound to the peer's host).
	HTTP *httpx.Client
	// Version selects the SOAP version; zero value is SOAP 1.1.
	Version soap.Version

	// action caches the SOAPAction header value of the operation called
	// last: a client calls one operation over and over, so the quoted
	// concatenation amortizes to zero.
	action atomic.Pointer[string]
}

// NewRPC wraps an HTTP client for SOAP-RPC.
func NewRPC(h *httpx.Client) *RPC { return &RPC{HTTP: h, Version: soap.V11} }

// Call invokes operation on the service at serviceURL and returns the
// result parameters. A SOAP fault in the response surfaces as *soap.Fault.
func (c *RPC) Call(serviceURL, serviceNS, operation string, params ...soap.Param) ([]soap.Param, error) {
	return c.CallTimeout(serviceURL, serviceNS, operation, 0, params...)
}

// CallTimeout is Call with an explicit exchange budget (0 uses the HTTP
// client's default). The returned params (and any *soap.Fault error)
// are detached copies: the response body lives in a pooled buffer this
// method releases before returning, so nothing handed to the caller may
// alias it.
func (c *RPC) CallTimeout(serviceURL, serviceNS, operation string, timeout time.Duration, params ...soap.Param) ([]soap.Param, error) {
	resp, results, err := c.exchange(serviceURL, serviceNS, operation, timeout, params)
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	for i, p := range results {
		// One copy per result: name and value share a fresh string.
		s := p.Name + p.Value
		results[i] = soap.Param{Name: s[:len(p.Name)], Value: s[len(p.Name):]}
	}
	return results, nil
}

// exchange sends one call and decodes its response. On success the
// caller owns resp and must Release it; results alias its pooled body,
// except values with entity references, which the decoder unescaped
// into memory of its own. Errors are already detached from the body.
func (c *RPC) exchange(serviceURL, serviceNS, operation string, timeout time.Duration, params []soap.Param) (*httpx.Response, []soap.Param, error) {
	addr, path, err := httpx.SplitURL(serviceURL)
	if err != nil {
		return nil, nil, err
	}
	// Render the call straight into a pooled buffer; the HTTP client
	// writes it to the connection and the buffer is released on return.
	buf := xmlsoap.GetBuffer()
	defer xmlsoap.PutBuffer(buf)
	body, err := soap.AppendRPC(buf.B, c.Version, serviceNS, operation, params...)
	if err != nil {
		return nil, nil, err
	}
	buf.B = body
	req := httpx.NewRequest("POST", path, body)
	req.Header.Set("Content-Type", c.Version.ContentType())
	req.Header.Set("SOAPAction", c.soapAction(serviceNS, operation))

	var resp *httpx.Response
	if timeout > 0 {
		resp, err = c.HTTP.DoTimeout(addr, req, timeout)
	} else {
		resp, err = c.HTTP.Do(addr, req)
	}
	if err != nil {
		return nil, nil, err
	}
	results, err := soap.DecodeRPCResponse(resp.Body, operation, nil)
	if err != nil {
		status := resp.Status
		resp.Release()
		var ee *soap.EnvelopeError
		var f *soap.Fault
		switch {
		case errors.As(err, &ee):
			return nil, nil, fmt.Errorf("client: bad RPC response (HTTP %d): %w", status, ee.Err)
		case errors.As(err, &f):
			// The fault's strings alias the pooled body; detach before
			// it escapes the release.
			return nil, nil, f.Detach()
		}
		return nil, nil, err
	}
	return resp, results, nil
}

// soapAction returns the quoted "ns:op" SOAPAction value.
func (c *RPC) soapAction(ns, op string) string {
	if a := c.action.Load(); a != nil && len(*a) == len(ns)+len(op)+3 &&
		(*a)[1:1+len(ns)] == ns && (*a)[2+len(ns):len(*a)-1] == op {
		return *a
	}
	a := `"` + ns + ":" + op + `"`
	c.action.Store(&a)
	return a
}

// Messenger sends one-way WS-Addressing messages (fire-and-forget with
// respect to the transport: success is 202/200 from the next hop).
type Messenger struct {
	// HTTP is the transport.
	HTTP *httpx.Client
	// Version selects the SOAP version; zero value is SOAP 1.1.
	Version soap.Version
	// From, when set, stamps outgoing messages' From header.
	From string
}

// NewMessenger wraps an HTTP client for one-way messaging.
func NewMessenger(h *httpx.Client) *Messenger { return &Messenger{HTTP: h, Version: soap.V11} }

// Send posts one message to postURL (typically the MSG-Dispatcher's
// endpoint). Missing MessageIDs are filled in; the assigned ID is
// returned so callers can correlate replies.
func (m *Messenger) Send(postURL string, h *wsa.Headers, body *xmlsoap.Element) (string, error) {
	return m.SendTimeout(postURL, h, body, 0)
}

// SendTimeout is Send with an explicit budget (0 uses the client default).
func (m *Messenger) SendTimeout(postURL string, h *wsa.Headers, body *xmlsoap.Element, timeout time.Duration) (string, error) {
	addr, path, err := httpx.SplitURL(postURL)
	if err != nil {
		return "", err
	}
	hh := h.Clone()
	if hh.MessageID == "" {
		hh.MessageID = wsa.NewMessageID()
	}
	if hh.From == nil && m.From != "" {
		hh.From = &wsa.EPR{Address: m.From}
	}
	env := soap.New(m.Version).SetBody(body)
	buf := xmlsoap.GetBuffer()
	defer xmlsoap.PutBuffer(buf)
	raw, err := wsa.AppendRewritten(buf.B, env, hh)
	if err != nil {
		return "", err
	}
	buf.B = raw
	req := httpx.NewRequest("POST", path, raw)
	req.Header.Set("Content-Type", m.Version.ContentType())
	var resp *httpx.Response
	if timeout > 0 {
		resp, err = m.HTTP.DoTimeout(addr, req, timeout)
	} else {
		resp, err = m.HTTP.Do(addr, req)
	}
	if err != nil {
		return "", err
	}
	defer resp.Release()
	if resp.Status >= 300 {
		if env, perr := soap.Parse(resp.Body); perr == nil {
			if f, ok := soap.AsFault(env); ok {
				// Detached: the fault error outlives the pooled body.
				return "", fmt.Errorf("client: send rejected: %w", f.Detach())
			}
		}
		return "", fmt.Errorf("client: send rejected with HTTP %d", resp.Status)
	}
	return hh.MessageID, nil
}

// Box identifies one mailbox at a WS-MsgBox service.
type Box struct {
	ID      string
	Token   string
	Address string
}

// MailboxClient manages and polls mailboxes over RPC (Figure 2 steps 1,
// 3, 4) — RPC because "RPC is typically well supported from a client
// behind firewalls".
type MailboxClient struct {
	// RPC is the underlying call machinery.
	RPC *RPC
	// ServiceURL is the WS-MsgBox management endpoint,
	// e.g. "http://postoffice:9200/mbox".
	ServiceURL string
	// Clock times AwaitReply's budget; defaults to the wall clock.
	Clock clock.Clock

	mu       sync.Mutex
	buffered map[string]*soap.Envelope // replies taken but not yet claimed
}

// NewMailboxClient builds a mailbox client for the given service URL.
func NewMailboxClient(rpc *RPC, serviceURL string, clk clock.Clock) *MailboxClient {
	if clk == nil {
		clk = clock.Wall
	}
	return &MailboxClient{RPC: rpc, ServiceURL: serviceURL, Clock: clk, buffered: map[string]*soap.Envelope{}}
}

// Create makes a new mailbox (Figure 2 step 1). The Box handle lives
// for the whole conversation; RPC.Call already hands back detached
// params (the response body is pooled and released inside Call), so the
// values can be stored as-is.
func (mc *MailboxClient) Create() (*Box, error) {
	results, err := mc.RPC.Call(mc.ServiceURL, msgbox.ServiceNS, msgbox.OpCreate)
	if err != nil {
		return nil, err
	}
	box := &Box{}
	for _, p := range results {
		switch p.Name {
		case "boxId":
			box.ID = p.Value
		case "token":
			box.Token = p.Value
		case "address":
			box.Address = p.Value
		}
	}
	if box.ID == "" || box.Address == "" {
		return nil, errors.New("client: malformed createMsgBox response")
	}
	return box, nil
}

// DefaultTakeWait is how long Take asks the mailbox to hold a take that
// finds the box empty (see Take in the msgbox package doc). It must stay
// well under half of the HTTP client's request budget: the client may
// keep a connection deadline with only half the budget left, and a take
// still held when that deadline fires would be sent again on a fresh
// connection, after the mailbox had already deleted the first take's
// messages. The repository's clients use budgets of 10s and more.
const DefaultTakeWait = time.Second

// Take downloads up to max messages (Figure 2 step 3). On an empty
// mailbox it long-polls: the mailbox holds the take for up to
// DefaultTakeWait until a message is parked.
func (mc *MailboxClient) Take(box *Box, max int) ([]*soap.Envelope, error) {
	return mc.take(box, max, DefaultTakeWait)
}

// take downloads up to max messages, asking the mailbox to hold the take
// for up to wait while the box is empty. Each message is parsed from the
// bytes the decoder unescaped it into, with no further copy: the
// messages of one take share one block, which lives as long as any of
// them.
func (mc *MailboxClient) take(box *Box, max int, wait time.Duration) ([]*soap.Envelope, error) {
	resp, results, err := mc.RPC.exchange(mc.ServiceURL, msgbox.ServiceNS, msgbox.OpTake, 0,
		[]soap.Param{
			{Name: "boxId", Value: box.ID},
			{Name: "token", Value: box.Token},
			{Name: "max", Value: strconv.Itoa(max)},
			{Name: "wait", Value: strconv.FormatInt(wait.Milliseconds(), 10)},
		})
	if err != nil {
		return nil, err
	}
	defer resp.Release()
	var out []*soap.Envelope
	for _, p := range results {
		if p.Name == "count" {
			continue
		}
		env, err := soap.Parse(ownedBytes(p.Value, resp.Body))
		if err != nil {
			return nil, fmt.Errorf("client: undecodable stored message: %w", err)
		}
		out = append(out, env)
	}
	return out, nil
}

// ownedBytes returns the bytes of a decoded value for a parse whose tree
// outlives body: a view of the value when the decoder unescaped it into
// memory of its own (every stored message: an envelope's markup is
// escaped on the wire), a copy when it still aliases body. soap.Parse
// only reads its input, so the view is never written.
func ownedBytes(v string, body []byte) []byte {
	if v == "" {
		return nil
	}
	p := uintptr(unsafe.Pointer(unsafe.StringData(v)))
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(body)))
	if p >= lo && p < lo+uintptr(cap(body)) {
		return []byte(v)
	}
	return unsafe.Slice(unsafe.StringData(v), len(v))
}

// Peek returns the number of waiting messages without removing any.
func (mc *MailboxClient) Peek(box *Box) (int, error) {
	results, err := mc.RPC.Call(mc.ServiceURL, msgbox.ServiceNS, msgbox.OpPeek,
		soap.Param{Name: "boxId", Value: box.ID},
		soap.Param{Name: "token", Value: box.Token},
	)
	if err != nil {
		return 0, err
	}
	for _, p := range results {
		if p.Name == "count" {
			return strconv.Atoi(p.Value)
		}
	}
	return 0, errors.New("client: malformed peekCount response")
}

// Destroy frees the mailbox (Figure 2 step 4).
func (mc *MailboxClient) Destroy(box *Box) error {
	_, err := mc.RPC.Call(mc.ServiceURL, msgbox.ServiceNS, msgbox.OpDestroy,
		soap.Param{Name: "boxId", Value: box.ID},
		soap.Param{Name: "token", Value: box.Token},
	)
	return err
}

// ErrAwaitTimeout is returned by AwaitReply when no matching reply arrives
// within the budget.
var ErrAwaitTimeout = errors.New("client: timed out awaiting reply")

// AwaitReply long-polls the mailbox until a message with RelatesTo ==
// msgID arrives, each take held for the rest of the budget, at most
// DefaultTakeWait. Non-matching messages are buffered for later
// AwaitReply calls (interleaved conversations share one mailbox).
func (mc *MailboxClient) AwaitReply(box *Box, msgID string, timeout time.Duration) (*soap.Envelope, error) {
	deadline := mc.Clock.Now().Add(timeout)
	for {
		mc.mu.Lock()
		if env, ok := mc.buffered[msgID]; ok {
			delete(mc.buffered, msgID)
			mc.mu.Unlock()
			return env, nil
		}
		mc.mu.Unlock()

		wait := min(max(deadline.Sub(mc.Clock.Now()), 0), DefaultTakeWait)
		envs, err := mc.take(box, 32, wait)
		if err != nil {
			return nil, err
		}
		var match *soap.Envelope
		mc.mu.Lock()
		for _, env := range envs {
			h, err := wsa.FromEnvelope(env)
			if err != nil || h.RelatesTo == "" {
				continue
			}
			if h.RelatesTo == msgID && match == nil {
				match = env
			} else {
				mc.buffered[h.RelatesTo] = env
			}
		}
		mc.mu.Unlock()
		if match != nil {
			return match, nil
		}
		if !mc.Clock.Now().Before(deadline) {
			return nil, ErrAwaitTimeout
		}
	}
}

// Conversation composes a Messenger and a MailboxClient into the paper's
// complete pattern for endpoint-less peers: send through the
// MSG-Dispatcher with ReplyTo pointing at a mailbox, then long-poll the
// mailbox for the correlated reply.
type Conversation struct {
	// Messenger sends the outbound legs.
	Messenger *Messenger
	// Mailbox polls the inbound legs.
	Mailbox *MailboxClient
	// Box is the conversation's mailbox.
	Box *Box
	// DispatcherURL is the MSG-Dispatcher message endpoint.
	DispatcherURL string
}

// Call sends one message (To may be "logical:<name>") and awaits its
// correlated reply via the mailbox.
func (c *Conversation) Call(to, action string, body *xmlsoap.Element, timeout time.Duration) (*soap.Envelope, error) {
	h := &wsa.Headers{
		To:      to,
		Action:  action,
		ReplyTo: &wsa.EPR{Address: c.Box.Address},
	}
	msgID, err := c.Messenger.Send(c.DispatcherURL, h, body)
	if err != nil {
		return nil, err
	}
	return c.Mailbox.AwaitReply(c.Box, msgID, timeout)
}
