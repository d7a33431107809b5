package xmlsoap

import (
	"errors"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// PreferredPrefixes maps well-known namespace URIs to conventional
// prefixes, keeping wire output readable and byte-stable. Unknown
// namespaces get generated prefixes ns1, ns2, ...
var PreferredPrefixes = map[string]string{
	"http://schemas.xmlsoap.org/soap/envelope/":        "soapenv",
	"http://www.w3.org/2003/05/soap-envelope":          "soap12",
	"http://schemas.xmlsoap.org/ws/2004/08/addressing": "wsa",
	"http://schemas.xmlsoap.org/wsdl/":                 "wsdl",
	"http://www.w3.org/2001/XMLSchema":                 "xsd",
	"http://www.w3.org/2001/XMLSchema-instance":        "xsi",
}

// Prolog is the XML 1.0 document prolog emitted by MarshalDoc/AppendDocTo.
const Prolog = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// Marshal serializes the element subtree to XML without a prolog.
// Namespace declarations are emitted at the first element that uses each
// namespace within its scope. The returned slice is freshly allocated at
// exact size; hot paths that can reuse buffers should call AppendTo.
func Marshal(e *Element) ([]byte, error) {
	return Render(e.AppendTo)
}

// MarshalDoc is Marshal with an XML 1.0 prolog, for complete documents on
// the wire.
func MarshalDoc(e *Element) ([]byte, error) {
	return Render(e.AppendDocTo)
}

// AppendTo appends the serialized subtree (no prolog) to dst and returns
// the extended slice. It draws serializer scratch state from a pool, so
// steady-state marshaling into a reused dst allocates nothing.
func (e *Element) AppendTo(dst []byte) ([]byte, error) {
	enc := getEncoder()
	dst, err := enc.AppendElement(dst, e)
	putEncoder(enc)
	return dst, err
}

// AppendDocTo is AppendTo preceded by the XML prolog.
func (e *Element) AppendDocTo(dst []byte) ([]byte, error) {
	return e.AppendTo(append(dst, Prolog...))
}

// WriteTo serializes the subtree into a pooled buffer and writes it to w
// in a single Write call. It implements io.WriterTo.
func (e *Element) WriteTo(w io.Writer) (int64, error) {
	return WriteRendered(w, e.AppendTo)
}

// Encoder holds the reusable scratch state of the serializer: the
// namespace scope stack and the prefix generator. A zero Encoder is not
// ready; use NewEncoder. Encoders are not safe for concurrent use; the
// package-level entry points draw them from an internal pool.
type Encoder struct {
	scopes []Binding
	gen    prefixGen

	// splitTarget, when set, makes the encoder record the byte offsets
	// surrounding the target's content and a State snapshot at the open
	// tag. Used only by MarshalDocSplit at skeleton-compile time.
	splitTarget *Element
	splitOpen   int
	splitClose  int
	splitState  *State
}

// NewEncoder returns an encoder with warm scratch state.
func NewEncoder() *Encoder {
	enc := &Encoder{}
	enc.reset()
	return enc
}

var encPool = sync.Pool{New: func() any { return NewEncoder() }}

func getEncoder() *Encoder { return encPool.Get().(*Encoder) }

func putEncoder(enc *Encoder) {
	enc.splitTarget = nil
	enc.splitState = nil
	encPool.Put(enc)
}

func (enc *Encoder) reset() {
	enc.scopes = enc.scopes[:0]
	g := &enc.gen
	if g.assigned == nil {
		g.assigned = make(map[string]string, 8)
		g.used = make(map[string]bool, 8)
	} else {
		clear(g.assigned)
		clear(g.used)
	}
	g.n = 0
}

// AppendElement serializes one subtree, resetting the encoder's document
// state first. Reusing one Encoder (or the pooled path behind AppendTo)
// keeps marshaling allocation-free once dst has capacity.
func (enc *Encoder) AppendElement(dst []byte, e *Element) ([]byte, error) {
	enc.reset()
	return enc.element(dst, e)
}

// errors surfaced by the serializer.
var (
	errNilElement   = errors.New("xmlsoap: nil element")
	errEmptyName    = errors.New("xmlsoap: element with empty local name")
	errSplitMissed  = errors.New("xmlsoap: split target not reached or content-free")
	errNilSplitRoot = errors.New("xmlsoap: nil split root or target")
)

func (enc *Encoder) element(dst []byte, e *Element) ([]byte, error) {
	if e == nil {
		return dst, errNilElement
	}
	if e.Name.Local == "" {
		return dst, errEmptyName
	}

	scopeStart := len(enc.scopes)
	dst = append(dst, '<')
	tagStart := len(dst)
	dst = enc.appendQName(dst, e.Name)
	tagEnd := len(dst)
	for _, a := range e.Attrs {
		dst = append(dst, ' ')
		dst = enc.appendQName(dst, a.Name)
		dst = append(dst, '=', '"')
		dst = AppendEscapedAttr(dst, a.Value)
		dst = append(dst, '"')
	}
	for _, d := range enc.scopes[scopeStart:] {
		dst = append(dst, ` xmlns:`...)
		dst = append(dst, d.Prefix...)
		dst = append(dst, '=', '"')
		dst = AppendEscapedAttr(dst, d.URI)
		dst = append(dst, '"')
	}

	if e.Text == "" && len(e.Children) == 0 {
		dst = append(dst, '/', '>')
		enc.scopes = enc.scopes[:scopeStart]
		return dst, nil
	}
	dst = append(dst, '>')
	if e == enc.splitTarget {
		enc.splitOpen = len(dst)
		enc.splitState = enc.captureState()
	}
	if e.Text != "" {
		dst = AppendEscapedText(dst, e.Text)
	}
	var err error
	for _, c := range e.Children {
		if dst, err = enc.element(dst, c); err != nil {
			return dst, err
		}
	}
	if e == enc.splitTarget {
		enc.splitClose = len(dst)
	}
	dst = append(dst, '<', '/')
	// tagStart/tagEnd index into dst written before any child could have
	// grown it; contents are preserved across reallocation.
	dst = append(dst, dst[tagStart:tagEnd]...)
	dst = append(dst, '>')
	enc.scopes = enc.scopes[:scopeStart]
	return dst, nil
}

func (enc *Encoder) appendQName(dst []byte, n Name) []byte {
	if n.Space == "" {
		return append(dst, n.Local...)
	}
	p, ok := enc.lookup(n.Space)
	if !ok {
		p = enc.gen.prefixFor(n.Space)
		enc.scopes = append(enc.scopes, Binding{URI: n.Space, Prefix: p})
	}
	dst = append(dst, p...)
	dst = append(dst, ':')
	return append(dst, n.Local...)
}

func (enc *Encoder) lookup(uri string) (string, bool) {
	for i := len(enc.scopes) - 1; i >= 0; i-- {
		if enc.scopes[i].URI == uri {
			return enc.scopes[i].Prefix, true
		}
	}
	return "", false
}

type prefixGen struct {
	assigned map[string]string
	used     map[string]bool
	n        int
	// names interns generated prefixes ("ns1", "ns2", ...). It survives
	// encoder resets so steady-state marshaling of foreign namespaces
	// does not allocate prefix strings.
	names []string
}

func (g *prefixGen) prefixFor(uri string) string {
	if p, ok := g.assigned[uri]; ok {
		return p
	}
	p := PreferredPrefixes[uri]
	if p == "" || g.used[p] {
		for {
			g.n++
			p = g.generated(g.n)
			if !g.used[p] {
				break
			}
		}
	}
	g.assigned[uri] = p
	g.used[p] = true
	return p
}

func (g *prefixGen) generated(i int) string {
	for len(g.names) < i {
		var scratch [16]byte
		b := append(scratch[:0], 'n', 's')
		b = strconv.AppendInt(b, int64(len(g.names)+1), 10)
		g.names = append(g.names, string(b))
	}
	return g.names[i-1]
}

// AppendEscapedText appends s to dst with the text-content escapes
// (&, <, >, and \r as &#13;) applied, copying in spans between escapable
// bytes. It never allocates beyond dst growth.
func AppendEscapedText(dst []byte, s string) []byte {
	return appendEscaped(dst, s, escapeText)
}

// AppendEscapedAttr appends s to dst with the attribute-value escapes
// (&, <, >, ", newline, tab, carriage return) applied.
func AppendEscapedAttr(dst []byte, s string) []byte {
	return appendEscaped(dst, s, escapeAttr)
}

// appendEscaped copies s into dst run by run, stopping only at the
// bytes ctx escapes and at non-ASCII. Valid UTF-8 sequences stay part
// of the run; an invalid byte becomes U+FFFD, as the rune-at-a-time
// serializer this replaced always rendered it.
func appendEscaped(dst []byte, s string, ctx Context) []byte {
	b := unsafe.Slice(unsafe.StringData(s), len(s)) // read only
	start := 0
	for i := Skip(b, 0, ctx); i < len(s); i = Skip(b, i, ctx) {
		if s[i] >= utf8.RuneSelf {
			// A run of valid multi-byte runes stays part of the span.
			for i < len(s) && s[i] >= utf8.RuneSelf {
				r, size := utf8.DecodeRuneInString(s[i:])
				if r == utf8.RuneError && size == 1 {
					break
				}
				i += size
			}
			if i == len(s) || s[i] < utf8.RuneSelf {
				continue
			}
		}
		// Constant appends compile to stores, with no copy call.
		dst = append(dst, s[start:i]...)
		switch s[i] {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '"':
			dst = append(dst, "&quot;"...)
		case '\n':
			dst = append(dst, "&#10;"...)
		case '\t':
			dst = append(dst, "&#9;"...)
		case '\r':
			dst = append(dst, "&#13;"...)
		default: // an invalid UTF-8 byte
			dst = append(dst, string(utf8.RuneError)...)
		}
		i++
		start = i
	}
	return append(dst, s[start:]...)
}

// Binding pairs a namespace URI with the prefix it is declared under.
type Binding struct{ URI, Prefix string }

// State is a snapshot of serializer context partway through a document:
// the in-scope namespace bindings and the prefixes assigned so far. It
// lets a subtree be rendered later exactly as it would have been at that
// point — soap's envelope skeletons splice message bodies this way. A
// State is immutable after capture and safe for concurrent use.
type State struct {
	bindings []Binding
	assigned map[string]string
	used     map[string]bool
	n        int
}

func (enc *Encoder) captureState() *State {
	st := &State{
		bindings: append([]Binding(nil), enc.scopes...),
		assigned: make(map[string]string, len(enc.gen.assigned)),
		used:     make(map[string]bool, len(enc.gen.used)),
		n:        enc.gen.n,
	}
	for k, v := range enc.gen.assigned {
		st.assigned[k] = v
	}
	for k, v := range enc.gen.used {
		st.used[k] = v
	}
	return st
}

func (enc *Encoder) loadState(st *State) {
	enc.reset()
	enc.scopes = append(enc.scopes, st.bindings...)
	for k, v := range st.assigned {
		enc.gen.assigned[k] = v
	}
	for k, v := range st.used {
		enc.gen.used[k] = v
	}
	enc.gen.n = st.n
}

// AppendElements renders els at the captured document position, sharing
// one prefix generator across the elements (exactly as in-place
// serialization of siblings would). The pooled encoder works on copies,
// so the State itself is never mutated.
func (st *State) AppendElements(dst []byte, els ...*Element) ([]byte, error) {
	enc := getEncoder()
	enc.loadState(st)
	var err error
	for _, e := range els {
		if dst, err = enc.element(dst, e); err != nil {
			break
		}
	}
	putEncoder(enc)
	return dst, err
}

// MarshalDocSplit marshals root as a complete document (with prolog)
// while splitting it at target's content: it returns the document bytes
// before target's children, the serializer State at that point, and the
// bytes from target's closing tag onward. target is located by pointer
// identity and must render with content (non-empty Text or Children),
// since an empty element self-closes and has no split point. This is the
// skeleton-compile primitive: the returned pieces frame a constant
// envelope whose body is spliced per message via State.AppendElements.
func MarshalDocSplit(root, target *Element) (before []byte, st *State, after []byte, err error) {
	if root == nil || target == nil {
		return nil, nil, nil, errNilSplitRoot
	}
	enc := NewEncoder()
	enc.splitTarget = target
	dst := append([]byte(nil), Prolog...)
	dst, err = enc.element(dst, root)
	if err != nil {
		return nil, nil, nil, err
	}
	if enc.splitState == nil {
		return nil, nil, nil, errSplitMissed
	}
	before = append([]byte(nil), dst[:enc.splitOpen]...)
	after = append([]byte(nil), dst[enc.splitClose:]...)
	return before, enc.splitState, after, nil
}
