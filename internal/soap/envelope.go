package soap

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/xmlsoap"
)

// Version selects the envelope namespace.
type Version int

const (
	// V11 is SOAP 1.1 (http://schemas.xmlsoap.org/soap/envelope/),
	// what 2004-era SOAP-RPC clients spoke.
	V11 Version = iota
	// V12 is SOAP 1.2 (http://www.w3.org/2003/05/soap-envelope).
	V12
)

// Namespace URIs for the two supported versions.
const (
	NS11 = "http://schemas.xmlsoap.org/soap/envelope/"
	NS12 = "http://www.w3.org/2003/05/soap-envelope"
)

// ContentType returns the MIME type SOAP messages of this version use on
// HTTP.
func (v Version) ContentType() string {
	if v == V12 {
		return "application/soap+xml; charset=utf-8"
	}
	return "text/xml; charset=utf-8"
}

// NS returns the envelope namespace URI.
func (v Version) NS() string {
	if v == V12 {
		return NS12
	}
	return NS11
}

func (v Version) String() string {
	if v == V12 {
		return "SOAP 1.2"
	}
	return "SOAP 1.1"
}

// Envelope is a parsed or under-construction SOAP message.
type Envelope struct {
	Version Version
	// Header holds header blocks (may be empty). Dispatchers and
	// WS-Addressing operate here.
	Header []*xmlsoap.Element
	// Body holds the payload elements; for RPC exactly one wrapper.
	Body []*xmlsoap.Element
}

// New returns an empty envelope of the given version.
func New(v Version) *Envelope { return &Envelope{Version: v} }

// AddHeader appends header blocks and returns e.
func (e *Envelope) AddHeader(blocks ...*xmlsoap.Element) *Envelope {
	e.Header = append(e.Header, blocks...)
	return e
}

// SetBody replaces the body payload and returns e.
func (e *Envelope) SetBody(payload ...*xmlsoap.Element) *Envelope {
	e.Body = payload
	return e
}

// BodyElement returns the first body child, or nil for an empty body.
func (e *Envelope) BodyElement() *xmlsoap.Element {
	if len(e.Body) == 0 {
		return nil
	}
	return e.Body[0]
}

// HeaderBlock returns the first header block named {space}local, or nil.
func (e *Envelope) HeaderBlock(space, local string) *xmlsoap.Element {
	for _, h := range e.Header {
		if h.Name.Space == space && h.Name.Local == local {
			return h
		}
	}
	return nil
}

// RemoveHeaderBlocks deletes all header blocks named {space}local and
// reports how many were removed. The MSG-Dispatcher uses this when
// rewriting WS-Addressing headers.
func (e *Envelope) RemoveHeaderBlocks(space, local string) int {
	kept := e.Header[:0]
	removed := 0
	for _, h := range e.Header {
		if h.Name.Space == space && h.Name.Local == local {
			removed++
			continue
		}
		kept = append(kept, h)
	}
	e.Header = kept
	return removed
}

// Tree renders the envelope as an element tree.
func (e *Envelope) Tree() *xmlsoap.Element {
	ns := e.Version.NS()
	root := xmlsoap.New(ns, "Envelope")
	if len(e.Header) > 0 {
		hdr := xmlsoap.New(ns, "Header")
		for _, h := range e.Header {
			hdr.Add(h.Clone())
		}
		root.Add(hdr)
	}
	body := xmlsoap.New(ns, "Body")
	for _, b := range e.Body {
		body.Add(b.Clone())
	}
	root.Add(body)
	return root
}

// AppendTo appends the envelope as a complete XML document (with
// prolog) to dst and returns the extended slice. Unlike Tree, it
// serializes the header and body blocks in place without cloning them,
// so the per-message cost is the byte writing alone.
func (e *Envelope) AppendTo(dst []byte) ([]byte, error) {
	ns := e.Version.NS()
	root := xmlsoap.Element{Name: xmlsoap.Name{Space: ns, Local: "Envelope"}}
	var kids [2]*xmlsoap.Element
	root.Children = kids[:0]
	var hdr xmlsoap.Element
	if len(e.Header) > 0 {
		hdr = xmlsoap.Element{Name: xmlsoap.Name{Space: ns, Local: "Header"}, Children: e.Header}
		root.Children = append(root.Children, &hdr)
	}
	body := xmlsoap.Element{Name: xmlsoap.Name{Space: ns, Local: "Body"}, Children: e.Body}
	root.Children = append(root.Children, &body)
	return root.AppendDocTo(dst)
}

// WriteTo serializes the envelope into a pooled buffer and writes it to
// w in a single Write call. It implements io.WriterTo.
func (e *Envelope) WriteTo(w io.Writer) (int64, error) {
	return xmlsoap.WriteRendered(w, e.AppendTo)
}

// Marshal serializes the envelope as a complete XML document into a
// freshly allocated exact-size slice. Hot paths that can reuse buffers
// should prefer AppendTo (or wsa.AppendEnvelope, which adds the
// envelope-skeleton cache on top).
func (e *Envelope) Marshal() ([]byte, error) {
	return xmlsoap.Render(e.AppendTo)
}

// Clone returns a deep copy. Strings still alias their source (for a
// parsed envelope, the input buffer); use Detach when the copy must
// outlive the buffer the envelope was parsed from.
func (e *Envelope) Clone() *Envelope {
	c := &Envelope{Version: e.Version}
	for _, h := range e.Header {
		c.Header = append(c.Header, h.Clone())
	}
	for _, b := range e.Body {
		c.Body = append(c.Body, b.Clone())
	}
	return c
}

// Detach returns a deep copy whose strings are freshly allocated, so the
// copy stays valid after the buffer the envelope was parsed from is
// released or recycled. Any parsed envelope handed across an exchange
// boundary (the MSG-Dispatcher's anonymous-reply waiter is the canonical
// case) must travel detached.
func (e *Envelope) Detach() *Envelope {
	c := &Envelope{Version: e.Version}
	for _, h := range e.Header {
		c.Header = append(c.Header, h.Detach())
	}
	for _, b := range e.Body {
		c.Body = append(c.Body, b.Detach())
	}
	return c
}

// Errors returned by Parse.
var (
	ErrNotSOAP     = errors.New("soap: root element is not a SOAP Envelope")
	ErrMissingBody = errors.New("soap: envelope has no Body")
)

// Parse decodes one SOAP envelope (either version) from data.
//
// The envelope's strings and subtrees alias data (xmlsoap's zero-copy
// aliasing contract): data must not be modified while the envelope is
// live, and header values or body elements retained past the exchange
// that produced data must be copied out first (strings.Clone,
// xmlsoap.Element.Detach, wsa.Headers.Detach, Envelope.Detach). HTTP
// bodies in this stack live in pooled buffers (httpx reads request and
// response bodies into xmlsoap.GetBuffer storage), so an envelope parsed
// from one is valid only until the exchange's owner releases the buffer
// — within an httpx handler, until Serve returns; for an httpx client
// response, until Response.Release.
func Parse(data []byte) (*Envelope, error) {
	root, err := xmlsoap.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("soap: %w", err)
	}
	return FromTree(root)
}

// FromTree interprets an already-parsed element tree as an envelope. The
// envelope takes ownership of root's Header and Body child slices
// (capacity-capped, so appends reallocate) instead of copying them; the
// tree must not be used independently afterwards. Parse discards the
// tree, which is exactly this pattern.
func FromTree(root *xmlsoap.Element) (*Envelope, error) {
	var v Version
	switch {
	case root.Name.Space == NS11 && root.Name.Local == "Envelope":
		v = V11
	case root.Name.Space == NS12 && root.Name.Local == "Envelope":
		v = V12
	default:
		return nil, fmt.Errorf("%w (got %s)", ErrNotSOAP, root.Name)
	}
	ns := v.NS()
	env := New(v)
	if hdr := root.Child(ns, "Header"); hdr != nil {
		env.Header = hdr.Children[:len(hdr.Children):len(hdr.Children)]
	}
	body := root.Child(ns, "Body")
	if body == nil {
		return nil, ErrMissingBody
	}
	env.Body = body.Children[:len(body.Children):len(body.Children)]
	return env, nil
}

// MustUnderstandViolation returns the first header block that carries
// mustUnderstand="1" (or "true") in a namespace outside understood, or nil
// if every marked block is understood. Intermediaries use it to refuse
// messages they would otherwise silently mishandle.
func (e *Envelope) MustUnderstandViolation(understood ...string) *xmlsoap.Element {
	ns := e.Version.NS()
	isUnderstood := func(space string) bool {
		for _, u := range understood {
			if u == space {
				return true
			}
		}
		return false
	}
	for _, h := range e.Header {
		mu, ok := h.Attr(ns, "mustUnderstand")
		if !ok || (mu != "1" && mu != "true") {
			continue
		}
		if !isUnderstood(h.Name.Space) {
			return h
		}
	}
	return nil
}
