// Package wsa implements WS-Addressing (the August 2004 W3C Member
// Submission the paper cites) header construction, parsing, and the
// dispatcher-side rewriting that makes asynchronous forwarding work.
//
// The MSG-Dispatcher's CxThreads "parse the WS-Addressing message of the
// request to modify client's information with MSG-Dispatcher's return
// address": the original ReplyTo is remembered against the MessageID and
// replaced with the dispatcher's own endpoint, so the service's reply
// (carrying RelatesTo) comes back through the dispatcher, which can then
// deliver it to the real client or to its WS-MsgBox mailbox.
//
// # The zero-parse forward path
//
// SkimEnvelope scans a raw envelope once and yields a Skim: spans for the
// seven WS-Addressing fields (To, Action, MessageID, RelatesTo, From,
// ReplyTo, FaultTo; EPR fields carry the Address text) and the body
// content, with zero allocations. AppendSkimRewritten splices replacement
// field values and the body span through the same soap.Skeleton cache
// AppendRewritten uses. The MSG-Dispatcher's routing view and the
// RPC-Dispatcher's validation try the skim first. The contract:
//
//   - Canonical form only. The skim accepts exactly the stack's own
//     serializer output shape: the exact prolog and envelope framing,
//     attribute-less known WS-Addressing header blocks (EPRs as a lone
//     <wsa:Address> child), canonical escapes, and declared prefixes it
//     can simulate with fixed-size state. Anything else — foreign or
//     attributed header blocks, reference properties, entities, CDATA,
//     comments or PIs in skimmed regions, non-canonical whitespace,
//     framing or escape spellings — is a conservative decline, never a
//     guess. Accepting a byte string soap.Parse rejects is a fuzz
//     failure, not a judgment call.
//   - Declines are invisible. A declined envelope falls back to
//     soap.Parse and FromEnvelope, and the caller must reach identical
//     verdicts either way: same fault strings, HTTP statuses, counters
//     and forwarded wire bytes. The MSG-Dispatcher gets this by
//     construction — each routing leg is written once against a view
//     either front end fills — and TestRoutingFrontEndsAgree in msgdisp
//     checks it verdict by verdict.
//   - Span aliasing. Every Skim span aliases the scanned buffer (for
//     dispatcher traffic, the pooled request body), under the same
//     lifetime rules as parse trees: valid only while the body is live.
//     Anything retained past the routing pass is detached first —
//     pending-table keys, stored reply addresses, queued message IDs.
//     Transient map probes may use xmlsoap.ZeroCopyString views but must
//     not store them. The pool checker (xmlsoap.EnablePoolCheck) polices
//     violations.
//   - Fences. FuzzSkimDifferential requires every accepted input to agree
//     with the parser on all seven values and to splice a rewrite
//     byte-identical to AppendRewritten's; its seeds also run under the
//     race detector with pool checking. TestSkimZeroAlloc holds scan plus
//     splice at zero allocations, and msgdisp's
//     TestRoundTripSteadyStateAllocs budgets a whole canonical exchange
//     (≤7 allocations) and pins the parse fallback's count. BenchmarkSkim,
//     BenchmarkSkimRewrite and BenchmarkParseRewrite ride CI's bench
//     smoke; Skim and ParseRewrite also run 64 KiB bodies, one plain
//     and one with an escape in every 8 bytes. Which bytes each scanned
//     run may hold is xmlsoap's CanonText, CanonAttr and CanonValue (see
//     the xmlsoap package doc). Change what the skim accepts only
//     together with the fuzz seeds and the parser: the differential
//     property is the contract.
//
// # The fused rewrite
//
// AppendRewritten(dst, env, h) renders env with h replacing every
// WS-Addressing header in one pass: header values are spliced straight
// from h through the skeleton cache (see the soap package doc), with no
// allocation (TestAppendRewrittenZeroAlloc) and output byte-identical to
// Apply followed by AppendEnvelope (TestAppendRewrittenMatchesApply).
// Both dispatchers' forward and reply legs, the async echo reply and the
// peer messenger use it; the MSG-Dispatcher's two constant ReplyTo
// rewrites are built once (msgdisp's selfEPR and noneEPR).
package wsa

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"repro/internal/soap"
	"repro/internal/xmlsoap"
)

// NS is the WS-Addressing namespace of the 2004/08 submission used by the
// paper ([10] in its references).
const NS = "http://schemas.xmlsoap.org/ws/2004/08/addressing"

// Anonymous is the distinguished address meaning "reply on the transport
// back-channel" — exactly what a client with no network endpoint must NOT
// use for long-running conversations, motivating WS-MsgBox.
const Anonymous = NS + "/role/anonymous"

// None is the address meaning "discard replies" (one-way messaging).
const None = NS + "/role/none"

// EPR is an endpoint reference. Only the Address and reference properties
// are modeled; policy/metadata extensions are out of the paper's scope.
type EPR struct {
	// Address is the endpoint URI, e.g. "http://wsd:9000/msg" or a
	// mailbox address "http://postoffice:9100/mbox/ab12...".
	Address string
	// Properties are opaque reference properties echoed back to the
	// endpoint (the mailbox capability token travels here).
	Properties map[string]string
}

// Element renders the EPR under the given header-block name.
func (e *EPR) Element(local string) *xmlsoap.Element {
	el := xmlsoap.New(NS, local).Add(xmlsoap.NewText(NS, "Address", e.Address))
	if len(e.Properties) > 0 {
		props := xmlsoap.New(NS, "ReferenceProperties")
		// Deterministic order for stable wire output.
		keys := make([]string, 0, len(e.Properties))
		for k := range e.Properties {
			keys = append(keys, k)
		}
		sortStrings(keys)
		for _, k := range keys {
			props.Add(xmlsoap.NewText("", k, e.Properties[k]))
		}
		el.Add(props)
	}
	return el
}

func parseEPR(el *xmlsoap.Element) *EPR {
	if el == nil {
		return nil
	}
	e := &EPR{Address: el.ChildText(NS, "Address")}
	if props := el.Child(NS, "ReferenceProperties"); props != nil {
		e.Properties = make(map[string]string, len(props.Children))
		for _, p := range props.Children {
			e.Properties[p.Name.Local] = p.Text
		}
	}
	return e
}

// Headers is the set of WS-Addressing message-information headers.
type Headers struct {
	// To is the destination URI (logical or physical).
	To string
	// Action identifies the operation semantics.
	Action string
	// MessageID uniquely identifies this message.
	MessageID string
	// RelatesTo carries the MessageID this message responds to.
	RelatesTo string
	// From, ReplyTo, FaultTo are endpoint references.
	From    *EPR
	ReplyTo *EPR
	FaultTo *EPR
}

// ErrMissingTo is returned by FromEnvelope when the mandatory To header is
// absent.
var ErrMissingTo = errors.New("wsa: missing To header")

// NewMessageID returns a fresh urn:uuid message identifier.
func NewMessageID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("wsa: entropy unavailable: %v", err))
	}
	// RFC 4122 version 4 variant bits.
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	// Build "urn:uuid:xxxxxxxx-xxxx-xxxx-xxxx-xxxxxxxxxxxx" in a stack
	// scratch so the whole ID costs one allocation (the returned string);
	// dispatchers mint one per forwarded message.
	var dst [9 + 36]byte
	copy(dst[:9], "urn:uuid:")
	hex.Encode(dst[9:17], b[0:4])
	dst[17] = '-'
	hex.Encode(dst[18:22], b[4:6])
	dst[22] = '-'
	hex.Encode(dst[23:27], b[6:8])
	dst[27] = '-'
	hex.Encode(dst[28:32], b[8:10])
	dst[32] = '-'
	hex.Encode(dst[33:], b[10:16])
	return string(dst[:])
}

// Apply writes the headers into the envelope, replacing any existing
// WS-Addressing blocks.
func (h *Headers) Apply(env *soap.Envelope) {
	for _, local := range []string{"To", "Action", "MessageID", "RelatesTo", "From", "ReplyTo", "FaultTo"} {
		env.RemoveHeaderBlocks(NS, local)
	}
	if h.To != "" {
		env.AddHeader(xmlsoap.NewText(NS, "To", h.To))
	}
	if h.Action != "" {
		env.AddHeader(xmlsoap.NewText(NS, "Action", h.Action))
	}
	if h.MessageID != "" {
		env.AddHeader(xmlsoap.NewText(NS, "MessageID", h.MessageID))
	}
	if h.RelatesTo != "" {
		env.AddHeader(xmlsoap.NewText(NS, "RelatesTo", h.RelatesTo))
	}
	if h.From != nil {
		env.AddHeader(h.From.Element("From"))
	}
	if h.ReplyTo != nil {
		env.AddHeader(h.ReplyTo.Element("ReplyTo"))
	}
	if h.FaultTo != nil {
		env.AddHeader(h.FaultTo.Element("FaultTo"))
	}
}

// FromEnvelope extracts WS-Addressing headers. To is mandatory per the
// specification; everything else is optional.
func FromEnvelope(env *soap.Envelope) (*Headers, error) {
	var h Headers
	for _, block := range env.Header {
		if block.Name.Space != NS {
			continue
		}
		switch block.Name.Local {
		case "To":
			h.To = block.Text
		case "Action":
			h.Action = block.Text
		case "MessageID":
			h.MessageID = block.Text
		case "RelatesTo":
			h.RelatesTo = block.Text
		case "From":
			h.From = parseEPR(block)
		case "ReplyTo":
			h.ReplyTo = parseEPR(block)
		case "FaultTo":
			h.FaultTo = parseEPR(block)
		}
	}
	if h.To == "" {
		return nil, ErrMissingTo
	}
	// Copied out only on success, so the error path allocates nothing:
	// the MSG-Dispatcher's bridge probes unaddressed RPC responses here.
	out := h
	return &out, nil
}

// IsReply reports whether the headers mark the message as a reply (it
// relates to an earlier message).
func (h *Headers) IsReply() bool { return h.RelatesTo != "" }

// Clone returns a deep copy.
func (h *Headers) Clone() *Headers {
	c := *h
	c.From = h.From.Clone()
	c.ReplyTo = h.ReplyTo.Clone()
	c.FaultTo = h.FaultTo.Clone()
	return &c
}

// Clone returns a deep copy of the EPR; a nil receiver clones to nil.
func (e *EPR) Clone() *EPR {
	if e == nil {
		return nil
	}
	c := &EPR{Address: e.Address}
	if e.Properties != nil {
		c.Properties = make(map[string]string, len(e.Properties))
		for k, v := range e.Properties {
			c.Properties[k] = v
		}
	}
	return c
}

// Detach returns a deep copy whose strings are freshly allocated. Headers
// extracted from a parsed envelope alias the message buffer (the xmlsoap
// aliasing contract); anything retained past the exchange — the
// MSG-Dispatcher's pending-reply state is the canonical case — must hold
// detached copies so it neither pins the buffer nor, if the buffer is
// pooled, reads recycled bytes. A nil receiver detaches to nil.
func (e *EPR) Detach() *EPR {
	if e == nil {
		return nil
	}
	c := &EPR{Address: strings.Clone(e.Address)}
	if e.Properties != nil {
		c.Properties = make(map[string]string, len(e.Properties))
		for k, v := range e.Properties {
			c.Properties[strings.Clone(k)] = strings.Clone(v)
		}
	}
	return c
}

// Detach returns a deep copy of the headers with freshly allocated
// strings; see EPR.Detach for when this is required.
func (h *Headers) Detach() *Headers {
	return &Headers{
		To:        strings.Clone(h.To),
		Action:    strings.Clone(h.Action),
		MessageID: strings.Clone(h.MessageID),
		RelatesTo: strings.Clone(h.RelatesTo),
		From:      h.From.Detach(),
		ReplyTo:   h.ReplyTo.Detach(),
		FaultTo:   h.FaultTo.Detach(),
	}
}

// sortStrings is a tiny insertion sort to avoid importing sort for one
// call site on short slices.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
