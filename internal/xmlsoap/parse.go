package xmlsoap

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"unsafe"
)

// The package doc describes the parser, its oracle and fences, and the
// aliasing contract of parsed trees.

// ErrNoContent is returned when the input holds no element.
var ErrNoContent = errors.New("xmlsoap: no element content")

// Typed parse errors shared with the frozen reference parser
// (internal/xmlsoap/refparser), so both reject the same malformed inputs
// distinguishably. Match with errors.Is.
var (
	// ErrMultipleRoots: a second top-level element follows the root.
	ErrMultipleRoots = errors.New("xmlsoap: multiple root elements")
	// ErrUnclosedElement: input ended with elements still open.
	ErrUnclosedElement = errors.New("xmlsoap: unexpected EOF inside element")
	// ErrContentOutsideRoot: non-whitespace character data before or
	// after the root element.
	ErrContentOutsideRoot = errors.New("xmlsoap: character data outside root element")
	// ErrUndeclaredPrefix: a name uses a namespace prefix with no
	// in-scope declaration.
	ErrUndeclaredPrefix = errors.New("xmlsoap: undeclared namespace prefix")
	// ErrReservedPrefix: the xml/xmlns prefixes declared or used
	// contrary to the namespaces specification.
	ErrReservedPrefix = errors.New("xmlsoap: reserved namespace prefix misused")
	// ErrEmptyPrefixBinding: xmlns:p="" — prefixes cannot be undeclared
	// in Namespaces in XML 1.0.
	ErrEmptyPrefixBinding = errors.New("xmlsoap: empty URI in prefixed namespace declaration")
)

// SyntaxError reports where in the input the parser gave up. Err, when
// non-nil, carries one of the typed sentinel errors above.
type SyntaxError struct {
	Msg    string
	Offset int
	Err    error
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmlsoap: syntax error at byte %d: %s", e.Offset, e.Msg)
}

func (e *SyntaxError) Unwrap() error { return e.Err }

// xmlNamespaceURL is the namespace the reserved "xml" prefix is bound to.
const xmlNamespaceURL = "http://www.w3.org/XML/1998/namespace"

// Parse reads one XML document from data and returns its root element,
// using a pooled Decoder. Namespace prefixes are resolved during the
// scan; the tree stores expanded names only. The returned tree aliases
// data — see the package aliasing contract above.
func Parse(data []byte) (*Element, error) {
	d := getDecoder()
	root, err := d.Parse(data)
	putDecoder(d)
	return root, err
}

// ParseReader reads one XML document from r into a freshly allocated
// buffer and parses it. The returned tree aliases that buffer, which the
// tree keeps live; use Parse directly when the bytes are already in hand.
func ParseReader(r io.Reader) (*Element, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmlsoap: %w", err)
	}
	return Parse(data)
}

// sref kinds: how a recorded string is stored until materialization.
const (
	refNone  uint8 = iota // absent (empty string)
	refVocab              // interned vocabulary entry (lo = index)
	refInput              // span of the input buffer
	refEsc                // span of the decoder's escape arena
)

// sref is a deferred string: either an interned-vocabulary index or a
// span into the input / escape-arena bytes, resolved to a string header
// only at materialization so scratch reuse never invalidates a parsed
// tree.
type sref struct {
	lo, hi int32
	kind   uint8
}

func vocabRef(idx int16) sref { return sref{kind: refVocab, lo: int32(idx)} }

// pnode is one element recorded in document order. text holds the first
// character-data chunk; further chunks (text split by child elements,
// comments, or CDATA boundaries) chain through extra/extraTail into
// Decoder.chunks and are concatenated once at materialization, so
// accumulation never re-copies during the scan (a per-chunk re-copy
// would be quadratic, and a crafted document could blow the arena past
// the int32 span offsets).
type pnode struct {
	space, local     sref
	text             sref
	extra, extraTail int32
	parent           int32
	attrLo, attrHi   int32
	nchild           int32
}

// chunkLink is one extra text chunk in a node's chain.
type chunkLink struct {
	ref  sref
	next int32
}

// pattr is one (non-declaration) attribute in document order.
type pattr struct {
	space, local sref
	value        sref
}

// binding is one in-scope namespace declaration. A default declaration
// has an empty prefix span.
type binding struct {
	prefixLo, prefixHi int32
	uri                sref
}

// openElem is one unclosed element: its node index, the binding-stack
// floor to pop back to, and the raw qualified-name span its end tag must
// match byte-for-byte.
type openElem struct {
	node         int32
	bindFloor    int32
	rawLo, rawHi int32
}

// rawAttr is per-start-tag scratch: the attribute's prefix/local spans
// and decoded value before namespace processing.
type rawAttr struct {
	preLo, preHi int32
	locLo, locHi int32
	off          int32 // name offset, for error reporting
	value        sref
}

// Decoder holds the reusable scratch state of the pull parser: the
// recorded nodes and attributes, the open-element and namespace-binding
// stacks, and the escape arena. A zero Decoder is ready to use. Decoders
// are not safe for concurrent use; the package-level Parse draws them
// from an internal pool, mirroring the Encoder pool on the marshal side.
type Decoder struct {
	data []byte
	pos  int

	nodes    []pnode
	attrs    []pattr
	stack    []openElem
	bindings []binding
	rawAttrs []rawAttr
	chunks   []chunkLink
	esc      []byte
	cursors  []int32
	root     int32
}

// NewDecoder returns a Decoder with its own scratch, for callers that
// want deterministic reuse instead of the pooled package-level Parse.
func NewDecoder() *Decoder { return &Decoder{} }

var decPool = sync.Pool{New: func() any { return NewDecoder() }}

func getDecoder() *Decoder { return decPool.Get().(*Decoder) }

// Scratch retention caps, so one pathological document cannot pin large
// arenas in the pool for the process lifetime.
const (
	maxPooledNodes = 4096
	maxPooledEsc   = 64 << 10
)

func putDecoder(d *Decoder) {
	if cap(d.nodes) > maxPooledNodes || cap(d.attrs) > maxPooledNodes ||
		cap(d.stack) > maxPooledNodes || cap(d.bindings) > maxPooledNodes ||
		cap(d.rawAttrs) > maxPooledNodes || cap(d.chunks) > maxPooledNodes ||
		cap(d.cursors) > maxPooledNodes || cap(d.esc) > maxPooledEsc {
		return
	}
	decPool.Put(d)
}

// Parse scans one document from data. Steady-state reuse of one Decoder
// allocates only the arenas of the returned tree (elements, child
// pointers, attributes, and — only when escapes or split character runs
// occurred — one string arena).
func (d *Decoder) Parse(data []byte) (*Element, error) {
	// The escape arena is bounded by decoded content plus one
	// concatenation pass (< 2x input), and spans are int32; capping the
	// input at 1 GiB keeps every arena offset in range.
	if len(data) > math.MaxInt32/2 {
		return nil, errors.New("xmlsoap: input exceeds 1 GiB")
	}
	d.data = data
	d.pos = 0
	d.nodes = d.nodes[:0]
	d.attrs = d.attrs[:0]
	d.stack = d.stack[:0]
	d.bindings = d.bindings[:0]
	d.rawAttrs = d.rawAttrs[:0]
	d.chunks = d.chunks[:0]
	d.esc = d.esc[:0]
	d.root = -1
	root, err := d.run()
	d.data = nil
	return root, err
}

func (d *Decoder) run() (*Element, error) {
	for d.pos < len(d.data) {
		if d.data[d.pos] != '<' {
			ref, err := d.scanText(-1, false)
			if err != nil {
				return nil, err
			}
			if err := d.handleChunk(ref); err != nil {
				return nil, err
			}
			continue
		}
		d.pos++
		if d.pos >= len(d.data) {
			return nil, d.eofErr()
		}
		var err error
		switch d.data[d.pos] {
		case '/':
			d.pos++
			err = d.endTag()
		case '?':
			d.pos++
			err = d.procInst()
		case '!':
			d.pos++
			err = d.bang()
		default:
			err = d.startTag()
		}
		if err != nil {
			return nil, err
		}
	}
	if len(d.stack) > 0 {
		return nil, &SyntaxError{Msg: "unexpected EOF inside element", Offset: d.pos, Err: ErrUnclosedElement}
	}
	if d.root < 0 {
		return nil, ErrNoContent
	}
	return d.materialize(), nil
}

// refBytes returns the decoded bytes an sref denotes, for use during the
// scan (the spans are only stable until the underlying slices grow).
func (d *Decoder) refBytes(r sref) []byte {
	switch r.kind {
	case refInput:
		return d.data[r.lo:r.hi]
	case refEsc:
		return d.esc[r.lo:r.hi]
	case refVocab:
		s := internVocab[r.lo]
		return unsafe.Slice(unsafe.StringData(s), len(s))
	}
	return nil
}

// materialize builds the final tree: one Element arena, one child-pointer
// arena, one attribute arena, and one copy of the escape arena, with all
// strings resolved as zero-copy views of the input or those arenas.
func (d *Decoder) materialize() *Element {
	n := len(d.nodes)
	elems := make([]Element, n)
	// Join multi-chunk text runs into the escape arena first — once per
	// node, so total arena growth stays linear in the input — then copy
	// the arena out wholesale.
	for i := range d.nodes {
		nd := &d.nodes[i]
		if nd.extra < 0 {
			continue
		}
		lo := int32(len(d.esc))
		d.esc = append(d.esc, d.refBytes(nd.text)...)
		for k := nd.extra; k >= 0; k = d.chunks[k].next {
			d.esc = append(d.esc, d.refBytes(d.chunks[k].ref)...)
		}
		nd.text = sref{kind: refEsc, lo: lo, hi: int32(len(d.esc))}
		nd.extra = -1
	}
	var escOut []byte
	if len(d.esc) > 0 {
		escOut = make([]byte, len(d.esc))
		copy(escOut, d.esc)
	}
	var attrArena []Attr
	if len(d.attrs) > 0 {
		attrArena = make([]Attr, len(d.attrs))
	}
	var childArena []*Element
	if n > 1 {
		childArena = make([]*Element, n-1)
	}

	resolve := func(r sref) string {
		switch r.kind {
		case refVocab:
			return internVocab[r.lo]
		case refInput:
			return ZeroCopyString(d.data[r.lo:r.hi])
		case refEsc:
			return ZeroCopyString(escOut[r.lo:r.hi])
		}
		return ""
	}

	// Child regions: prefix sums of child counts in document order, then
	// one pass dropping each element into its parent's region. After the
	// fill, cur[i] is the end of i's region.
	cur := d.cursors[:0]
	off := int32(0)
	for i := range d.nodes {
		cur = append(cur, off)
		off += d.nodes[i].nchild
	}
	d.cursors = cur
	for i := 1; i < n; i++ {
		p := d.nodes[i].parent
		childArena[cur[p]] = &elems[i]
		cur[p]++
	}

	for i := range d.nodes {
		nd := &d.nodes[i]
		e := &elems[i]
		e.Name = Name{Space: resolve(nd.space), Local: resolve(nd.local)}
		e.Text = resolve(nd.text)
		if nd.attrHi > nd.attrLo {
			for j := nd.attrLo; j < nd.attrHi; j++ {
				a := &d.attrs[j]
				attrArena[j] = Attr{
					Name:  Name{Space: resolve(a.space), Local: resolve(a.local)},
					Value: resolve(a.value),
				}
			}
			e.Attrs = attrArena[nd.attrLo:nd.attrHi:nd.attrHi]
		}
		if nd.nchild > 0 {
			e.Children = childArena[cur[i]-nd.nchild : cur[i] : cur[i]]
		}
	}
	return &elems[0]
}

// ZeroCopyString views b as a string without copying. The caller owns
// the aliasing consequences — this is exactly the tree/input aliasing the
// package contract documents, exposed for the other span-reading fast
// paths built on it (the wsa skim hands header spans to map lookups and
// registry resolution this way). The returned string is valid only while
// b's backing bytes are: a view of a pooled buffer dies with the buffer,
// and anything retained past the exchange must be cloned first.
func ZeroCopyString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
