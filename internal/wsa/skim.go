package wsa

import (
	"bytes"
	"math"
	"strconv"

	"repro/internal/soap"
	"repro/internal/xmlsoap"
)

// The skim scanner: a zero-allocation forward-path alternative to
// soap.Parse for the dispatcher hot legs. SkimEnvelope tokenizes an
// envelope's raw bytes just far enough to extract the WS-Addressing
// header spans and the body span — no tree, no arenas — and
// AppendSkimRewritten splices those spans plus rewritten header values
// through the envelope-skeleton cache.
//
// The correctness contract is byte-identity with the parse path: a
// skim-accepted message must yield exactly the header values
// FromEnvelope would extract and a rewrite output identical to
// AppendRewritten over the parsed envelope. The scanner earns that by
// accepting ONLY envelopes in this stack's own serializer-canonical
// form — exact prolog, exact framing literals, declarations at first
// use in serializer order, the serializer's exact escape set, no
// whitespace-only text runs — and declining everything else to the full
// parser. Canonical form makes the body span a fixed point of
// parse+re-serialize, so splicing the raw span is equal to re-rendering
// the parsed tree at the skeleton's captured splice state. Declining is
// always safe (the caller falls back to soap.Parse); accepting anything
// the parser would reject, or anything whose re-render differs, is a
// bug fenced by FuzzSkimDifferential. The package doc states the
// contract callers rely on, span aliasing included.

// Skim holds the spans extracted from one canonical envelope. Header
// fields are nil when the block is absent; EPR fields (From, ReplyTo,
// FaultTo) hold the Address text. Body spans the Body element's
// content. All spans alias the scanned input.
type Skim struct {
	Version   soap.Version
	To        []byte
	Action    []byte
	MessageID []byte
	RelatesTo []byte
	From      []byte
	ReplyTo   []byte
	FaultTo   []byte
	Body      []byte
}

// SkimFieldCount is the length of the fields array SkimEnvelope
// extracts and AppendSkimRewritten splices: To, Action, MessageID,
// RelatesTo, From, ReplyTo, FaultTo, in that order.
const SkimFieldCount = len(fieldLocals)

// Fields fills dst with the skimmed header values in fieldLocals order
// as zero-copy views of the scanned input — the identity-rewrite input
// for AppendSkimRewritten. The views share the spans' lifetime.
func (sk *Skim) Fields(dst *[len(fieldLocals)]string) {
	dst[0] = xmlsoap.ZeroCopyString(sk.To)
	dst[1] = xmlsoap.ZeroCopyString(sk.Action)
	dst[2] = xmlsoap.ZeroCopyString(sk.MessageID)
	dst[3] = xmlsoap.ZeroCopyString(sk.RelatesTo)
	dst[4] = xmlsoap.ZeroCopyString(sk.From)
	dst[5] = xmlsoap.ZeroCopyString(sk.ReplyTo)
	dst[6] = xmlsoap.ZeroCopyString(sk.FaultTo)
}

// skimMaxInput mirrors the parser's input cap: the skim must never
// accept an input the parser would reject.
const skimMaxInput = math.MaxInt32 / 2

// Structural caps for the fixed-size scanner state. All are comfortably
// above real dispatcher traffic; exceeding one declines to the parser.
const (
	skimMaxDepth    = 32
	skimMaxScopes   = 16
	skimMaxAssigned = 16
	skimMaxAttrs    = 16
	skimMaxDecls    = 8
	skimMaxGen      = 8
)

// skimLiterals holds the exact framing bytes the serializer emits for
// one SOAP version.
type skimLiterals struct {
	envOpen  string // <soapenv:Envelope xmlns:soapenv="...">
	hdrOpen  string
	hdrClose string
	bodyOpen string
	tail     string // </soapenv:Body></soapenv:Envelope>
	envPfxB  []byte
	envNSB   []byte
}

var (
	skimLits       [2]skimLiterals
	skimBlockOpen  [len(fieldLocals)]string // <wsa:To xmlns:wsa="...">
	skimBlockClose [len(fieldLocals)]string // </wsa:To>
	skimAddrOpen   string
	skimAddrClose  string

	wsaPrefixBytes       []byte
	wsaNSBytes           = []byte(NS)
	preferredPrefixBytes map[string][]byte
	genPrefixBytes       [skimMaxGen][]byte
)

func init() {
	wp := xmlsoap.PreferredPrefixes[NS]
	wsaPrefixBytes = []byte(wp)
	for f, local := range fieldLocals {
		skimBlockOpen[f] = "<" + wp + ":" + local + ` xmlns:` + wp + `="` + NS + `">`
		skimBlockClose[f] = "</" + wp + ":" + local + ">"
	}
	skimAddrOpen = "<" + wp + ":Address>"
	skimAddrClose = "</" + wp + ":Address>"
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		ns := v.NS()
		p := xmlsoap.PreferredPrefixes[ns]
		skimLits[v] = skimLiterals{
			envOpen:  "<" + p + ":Envelope xmlns:" + p + `="` + ns + `">`,
			hdrOpen:  "<" + p + ":Header>",
			hdrClose: "</" + p + ":Header>",
			bodyOpen: "<" + p + ":Body>",
			tail:     "</" + p + ":Body></" + p + ":Envelope>",
			envPfxB:  []byte(p),
			envNSB:   []byte(ns),
		}
	}
	preferredPrefixBytes = make(map[string][]byte, len(xmlsoap.PreferredPrefixes))
	for u, p := range xmlsoap.PreferredPrefixes {
		preferredPrefixBytes[u] = []byte(p)
	}
	for k := range genPrefixBytes {
		genPrefixBytes[k] = []byte("ns" + strconv.Itoa(k+1))
	}
}

// hasAt reports whether lit occurs in raw at offset i. The compiler
// lowers the conversion+compare to a length check and memequal, so the
// hot path never allocates.
func hasAt(raw []byte, i int, lit string) bool {
	return i >= 0 && len(raw)-i >= len(lit) && string(raw[i:i+len(lit)]) == lit
}

// SkimEnvelope scans raw as a serializer-canonical SOAP envelope,
// filling sk with the WS-Addressing header spans and the body span. It
// returns false — declining to the full parser — on anything it cannot
// prove both parse-equivalent and re-serialization-stable. It performs
// no allocation either way.
func SkimEnvelope(raw []byte, sk *Skim) bool {
	*sk = Skim{}
	if len(raw) > skimMaxInput {
		return false
	}
	i := len(xmlsoap.Prolog)
	if !hasAt(raw, 0, xmlsoap.Prolog) {
		return false
	}
	var v soap.Version
	switch {
	case hasAt(raw, i, skimLits[soap.V11].envOpen):
		v = soap.V11
	case hasAt(raw, i, skimLits[soap.V12].envOpen):
		v = soap.V12
	default:
		return false
	}
	lits := &skimLits[v]
	i += len(lits.envOpen)
	if hasAt(raw, i, lits.hdrOpen) {
		i += len(lits.hdrOpen)
		for !hasAt(raw, i, lits.hdrClose) {
			var ok bool
			if i, ok = skimHeaderBlock(raw, i, sk); !ok {
				return false
			}
		}
		i += len(lits.hdrClose)
	}
	if !hasAt(raw, i, lits.bodyOpen) {
		return false
	}
	i += len(lits.bodyOpen)
	bodyStart := i
	var sim skimSim
	sim.init(raw, v)
	end, ok := sim.run(i)
	if !ok || !hasAt(raw, end, lits.tail) {
		return false
	}
	for j := end + len(lits.tail); j < len(raw); j++ {
		switch raw[j] {
		case ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	sk.Version = v
	sk.Body = raw[bodyStart:end]
	return true
}

// skimHeaderBlock scans one canonical WS-Addressing header block at
// offset i and records its value span (last occurrence wins, matching
// FromEnvelope). Canonical blocks carry the wsa declaration on the
// block element, no attributes, and a non-empty escape-free value; EPR
// blocks hold exactly one <wsa:Address>.
func skimHeaderBlock(raw []byte, i int, sk *Skim) (int, bool) {
	f := -1
	for fi := range skimBlockOpen {
		if hasAt(raw, i, skimBlockOpen[fi]) {
			f = fi
			break
		}
	}
	if f < 0 {
		return 0, false
	}
	i += len(skimBlockOpen[f])
	if f >= eprFieldStart {
		if !hasAt(raw, i, skimAddrOpen) {
			return 0, false
		}
		i += len(skimAddrOpen)
	}
	// Values hold no space, so a whitespace-only value (which the parser
	// drops to an empty field) stays off the fast path, and no reference,
	// so the span is both the decoded value and its wire form.
	lo := i
	if i = xmlsoap.Skip(raw, i, xmlsoap.CanonValue); i == lo {
		return 0, false
	}
	val := raw[lo:i]
	if f >= eprFieldStart {
		if !hasAt(raw, i, skimAddrClose) {
			return 0, false
		}
		i += len(skimAddrClose)
	}
	if !hasAt(raw, i, skimBlockClose[f]) {
		return 0, false
	}
	i += len(skimBlockClose[f])
	switch f {
	case 0:
		sk.To = val
	case 1:
		sk.Action = val
	case 2:
		sk.MessageID = val
	case 3:
		sk.RelatesTo = val
	case 4:
		sk.From = val
	case 5:
		sk.ReplyTo = val
	case 6:
		sk.FaultTo = val
	}
	return i, true
}

// skimBinding pairs a prefix with a namespace URI; both alias the input
// or package literals.
type skimBinding struct{ pfx, uri []byte }

type skimSpan struct{ lo, hi int }

type skimAttr struct {
	name skimSpan // full qname
	pfx  skimSpan // prefix part; lo==hi when unprefixed
}

type skimFrame struct {
	name       skimSpan
	scopeFloor int
	sawContent bool
}

// skimSim walks the body content while simulating the serializer's
// namespace machinery — the scope stack, the persistent prefix
// assignments (seeded exactly as the skeleton's captured body State:
// the envelope prefix in scope, the envelope and wsa namespaces
// assigned), and the generated-prefix counter. An element is canonical
// iff its declarations are exactly the ones the serializer would emit
// there, under the prefixes the serializer would pick.
type skimSim struct {
	raw      []byte
	scopes   [skimMaxScopes + 1]skimBinding
	nScopes  int
	assigned [skimMaxAssigned + 2]skimBinding
	nAssign  int
	ngen     int
	frames   [skimMaxDepth]skimFrame
	depth    int

	// Per-open-tag scratch; elements are processed iteratively, never
	// reentrantly, so one set suffices.
	attrs  [skimMaxAttrs]skimAttr
	decls  [skimMaxDecls]skimBinding
	expect [skimMaxDecls]skimBinding
}

func (s *skimSim) init(raw []byte, v soap.Version) {
	lits := &skimLits[v]
	s.raw = raw
	s.scopes[0] = skimBinding{pfx: lits.envPfxB, uri: lits.envNSB}
	s.nScopes = 1
	s.assigned[0] = s.scopes[0]
	// The wsa assignment is made by the header blocks when any exist;
	// when none do, PreferredPrefixes yields the same prefix on first
	// use, so one seed serves every header shape.
	s.assigned[1] = skimBinding{pfx: wsaPrefixBytes, uri: wsaNSBytes}
	s.nAssign = 2
}

// run scans body content from offset i and returns the offset of the
// closing "</" at body level. Body level admits elements only (the
// parser drops body-level text, which would change the re-render) and
// requires at least one.
func (s *skimSim) run(i int) (end int, ok bool) {
	raw := s.raw
	elems := 0
	for {
		if i >= len(raw) {
			return 0, false
		}
		if c := raw[i]; c != '<' {
			if s.depth == 0 {
				return 0, false // body-level text is dropped by FromTree
			}
			fr := &s.frames[s.depth-1]
			if fr.sawContent {
				return 0, false // text after a child re-renders at the front
			}
			if i, ok = s.text(i); !ok {
				return 0, false
			}
			fr.sawContent = true
			continue
		}
		if i+1 >= len(raw) {
			return 0, false
		}
		switch raw[i+1] {
		case '/':
			if s.depth == 0 {
				if elems == 0 {
					return 0, false
				}
				return i, true
			}
			fr := &s.frames[s.depth-1]
			if !fr.sawContent {
				return 0, false // <x></x> re-renders self-closed
			}
			j := i + 2
			n := fr.name.hi - fr.name.lo
			if len(raw)-j < n+1 ||
				!bytes.Equal(raw[j:j+n], raw[fr.name.lo:fr.name.hi]) ||
				raw[j+n] != '>' {
				return 0, false
			}
			s.nScopes = fr.scopeFloor
			s.depth--
			i = j + n + 1
		case '!', '?':
			return 0, false // comments, CDATA, PIs, DOCTYPE: never canonical
		default:
			if s.depth > 0 {
				s.frames[s.depth-1].sawContent = true
			} else {
				elems++
			}
			if i, ok = s.element(i); !ok {
				return 0, false
			}
		}
	}
}

// text scans one character-data run up to the next '<'. Canonical text
// is the serializer's escape set exactly (xmlsoap.CanonText: &, <, >
// only as their named entities, no \r, control or non-ASCII byte) and
// holds at least one non-whitespace character (the parser drops
// whitespace-only runs, which would change the re-render).
func (s *skimSim) text(i int) (int, bool) {
	raw := s.raw
	nonWS := false
	for {
		j := xmlsoap.Skip(raw, i, xmlsoap.CanonText)
		if !nonWS {
			nonWS = hasNonSpace(raw[i:j])
		}
		if j == len(raw) || raw[j] == '<' {
			i = j
			break
		}
		if i = j + entityLen(raw, j, false); i == j {
			return 0, false // '>', \r, a control, DEL, non-ASCII or another reference
		}
		nonWS = true
	}
	if !nonWS {
		return 0, false
	}
	return i, true
}

// hasNonSpace reports whether a canonical text run holds a byte other
// than space, tab or newline.
func hasNonSpace(run []byte) bool {
	for _, c := range run {
		if c != ' ' && c != '\t' && c != '\n' {
			return true
		}
	}
	return false
}

// entityLen returns the length of the canonical reference at raw[i], or
// 0 if none starts there. Text admits the serializer's three text
// escapes; attributes add &quot;, &#10; and &#9;.
func entityLen(raw []byte, i int, attr bool) int {
	if len(raw)-i < 4 {
		return 0
	}
	switch raw[i+1] {
	case 'a':
		if hasAt(raw, i, "&amp;") {
			return len("&amp;")
		}
	case 'l':
		if hasAt(raw, i, "&lt;") {
			return len("&lt;")
		}
	case 'g':
		if hasAt(raw, i, "&gt;") {
			return len("&gt;")
		}
	case 'q':
		if attr && hasAt(raw, i, "&quot;") {
			return len("&quot;")
		}
	case '#':
		if attr && hasAt(raw, i, "&#10;") {
			return len("&#10;")
		}
		if attr && hasAt(raw, i, "&#9;") {
			return len("&#9;")
		}
	}
	return 0
}

// element scans one open tag at i (raw[i] == '<') and simulates the
// serializer over it.
func (s *skimSim) element(i int) (int, bool) {
	raw := s.raw
	if s.depth >= skimMaxDepth {
		return 0, false
	}
	name, pfx, j, ok := s.qname(i + 1)
	if !ok {
		return 0, false
	}
	nAttrs, nDecls := 0, 0
	for j < len(raw) && raw[j] == ' ' {
		an, apfx, k, ok := s.qname(j + 1)
		if !ok {
			return 0, false
		}
		isDecl := apfx.hi-apfx.lo == 5 && string(raw[apfx.lo:apfx.hi]) == "xmlns"
		if !isDecl && an.hi-an.lo == 5 && string(raw[an.lo:an.hi]) == "xmlns" {
			return 0, false // default xmlns: the serializer never emits one
		}
		if len(raw)-k < 2 || raw[k] != '=' || raw[k+1] != '"' {
			return 0, false
		}
		vLo := k + 2
		var vHi int
		if isDecl {
			vHi, ok = s.declValue(vLo)
		} else {
			vHi, ok = s.attrValue(vLo)
		}
		if !ok {
			return 0, false
		}
		j = vHi + 1
		if isDecl {
			dp := raw[apfx.hi+1 : an.hi]
			if string(dp) == "xml" || string(dp) == "xmlns" {
				return 0, false
			}
			if nDecls >= skimMaxDecls {
				return 0, false
			}
			for k := 0; k < nDecls; k++ {
				if bytes.Equal(s.decls[k].pfx, dp) {
					return 0, false // duplicate declaration
				}
			}
			s.decls[nDecls] = skimBinding{pfx: dp, uri: raw[vLo:vHi]}
			nDecls++
		} else {
			if nDecls > 0 {
				return 0, false // attr after a decl: not serializer order
			}
			if apfx.lo < apfx.hi && string(raw[apfx.lo:apfx.hi]) == "xml" {
				return 0, false
			}
			if nAttrs >= skimMaxAttrs {
				return 0, false
			}
			for k := 0; k < nAttrs; k++ {
				p := s.attrs[k].name
				if bytes.Equal(raw[p.lo:p.hi], raw[an.lo:an.hi]) {
					return 0, false // duplicate attribute (parse error)
				}
			}
			s.attrs[nAttrs] = skimAttr{name: an, pfx: apfx}
			nAttrs++
		}
	}
	selfClose := false
	if j < len(raw) && raw[j] == '/' {
		selfClose = true
		j++
	}
	if j >= len(raw) || raw[j] != '>' {
		return 0, false
	}
	j++

	// Replay the serializer's qname walk — element name first, then
	// attributes in order — accumulating the declarations it would emit,
	// and require the tag's actual declarations to match exactly.
	floor := s.nScopes
	nExpect := 0
	if pfx.lo < pfx.hi {
		uri, ok := s.resolve(raw[pfx.lo:pfx.hi], nDecls)
		if !ok || !s.process(uri, raw[pfx.lo:pfx.hi], &nExpect) {
			return 0, false
		}
	}
	for k := 0; k < nAttrs; k++ {
		ap := s.attrs[k].pfx
		if ap.lo == ap.hi {
			continue
		}
		uri, ok := s.resolve(raw[ap.lo:ap.hi], nDecls)
		if !ok || !s.process(uri, raw[ap.lo:ap.hi], &nExpect) {
			return 0, false
		}
	}
	if nExpect != nDecls {
		return 0, false
	}
	for k := 0; k < nDecls; k++ {
		if !bytes.Equal(s.expect[k].pfx, s.decls[k].pfx) ||
			!bytes.Equal(s.expect[k].uri, s.decls[k].uri) {
			return 0, false
		}
	}
	if selfClose {
		s.nScopes = floor
		return j, true
	}
	s.frames[s.depth] = skimFrame{name: name, scopeFloor: floor}
	s.depth++
	return j, true
}

// resolve maps a prefix to its URI — the element's own declarations
// shadow the outer scopes — or declines (the parser would reject an
// undeclared prefix).
func (s *skimSim) resolve(p []byte, nDecls int) ([]byte, bool) {
	for k := 0; k < nDecls; k++ {
		if bytes.Equal(s.decls[k].pfx, p) {
			return s.decls[k].uri, true
		}
	}
	for k := s.nScopes - 1; k >= 0; k-- {
		if bytes.Equal(s.scopes[k].pfx, p) {
			return s.scopes[k].uri, true
		}
	}
	return nil, false
}

// process replays one serializer qname emission: an in-scope URI must
// reuse the innermost prefix; a new URI must use exactly the prefix the
// generator would assign, pushing a scope and an expected declaration.
func (s *skimSim) process(uri, p []byte, nExpect *int) bool {
	for k := s.nScopes - 1; k >= 0; k-- {
		if bytes.Equal(s.scopes[k].uri, uri) {
			return bytes.Equal(s.scopes[k].pfx, p)
		}
	}
	want, ok := s.prefixFor(uri)
	if !ok || !bytes.Equal(want, p) {
		return false
	}
	if s.nScopes >= len(s.scopes) || *nExpect >= skimMaxDecls {
		return false
	}
	s.scopes[s.nScopes] = skimBinding{pfx: want, uri: uri}
	s.nScopes++
	s.expect[*nExpect] = skimBinding{pfx: want, uri: uri}
	*nExpect++
	return true
}

// prefixFor mirrors prefixGen.prefixFor: sticky assignment by URI, then
// the preferred prefix if unused, then generated ns1, ns2, ... The
// used set is exactly the assigned prefixes, so one array serves both.
func (s *skimSim) prefixFor(uri []byte) ([]byte, bool) {
	for k := 0; k < s.nAssign; k++ {
		if bytes.Equal(s.assigned[k].uri, uri) {
			return s.assigned[k].pfx, true
		}
	}
	p := preferredPrefixBytes[string(uri)]
	if p == nil || s.prefixUsed(p) {
		for {
			s.ngen++
			if s.ngen > skimMaxGen {
				return nil, false
			}
			if g := genPrefixBytes[s.ngen-1]; !s.prefixUsed(g) {
				p = g
				break
			}
		}
	}
	if s.nAssign >= len(s.assigned) {
		return nil, false
	}
	s.assigned[s.nAssign] = skimBinding{pfx: p, uri: uri}
	s.nAssign++
	return p, true
}

func (s *skimSim) prefixUsed(p []byte) bool {
	for k := 0; k < s.nAssign; k++ {
		if bytes.Equal(s.assigned[k].pfx, p) {
			return true
		}
	}
	return false
}

// qname scans an ASCII name at i, returning the full span, the prefix
// span (lo==hi when unprefixed), and the index past the name. Non-ASCII
// names decline to the parser.
func (s *skimSim) qname(i int) (name, pfx skimSpan, end int, ok bool) {
	raw := s.raw
	lo := i
	if i >= len(raw) || !skimNameStart(raw[i]) {
		return name, pfx, 0, false
	}
	i++
	colon := -1
	for i < len(raw) {
		c := raw[i]
		if skimNameByte(c) {
			i++
			continue
		}
		if c == ':' && colon < 0 && i+1 < len(raw) && skimNameStart(raw[i+1]) {
			colon = i
			i += 2
			continue
		}
		break
	}
	name = skimSpan{lo: lo, hi: i}
	pfx = skimSpan{lo: lo, hi: lo}
	if colon >= 0 {
		pfx.hi = colon
	}
	return name, pfx, i, true
}

func skimNameStart(c byte) bool {
	return c == '_' || ('A' <= c && c <= 'Z') || ('a' <= c && c <= 'z')
}

func skimNameByte(c byte) bool {
	return skimNameStart(c) || ('0' <= c && c <= '9') || c == '.' || c == '-'
}

// attrValue scans a double-quoted attribute value from i (just past the
// opening quote) and returns the closing-quote index. Canonical values
// are xmlsoap.CanonAttr: printable ASCII and space, with the
// serializer's attribute escape set — raw tab/newline/quote would
// re-escape, so they decline, as does any reference outside the set.
func (s *skimSim) attrValue(i int) (int, bool) {
	raw := s.raw
	for {
		i = xmlsoap.Skip(raw, i, xmlsoap.CanonAttr)
		if i == len(raw) {
			return 0, false
		}
		if raw[i] == '"' {
			return i, true
		}
		n := entityLen(raw, i, true)
		if n == 0 {
			return 0, false
		}
		i += n
	}
}

// declValue is attrValue restricted to non-empty reference-free URIs,
// so a declaration's raw bytes, its decoded URI, and the re-escaped
// form are all identical and the simulation can compare spans directly.
// An empty binding is a parse error.
func (s *skimSim) declValue(i int) (int, bool) {
	j := xmlsoap.Skip(s.raw, i, xmlsoap.CanonAttr)
	if j == i || j == len(s.raw) || s.raw[j] != '"' {
		return 0, false
	}
	return j, true
}

// AppendSkimRewritten renders a complete envelope from a skimmed
// message through the skeleton cache: fields holds the rewritten header
// values in canonical block order (To, Action, MessageID, RelatesTo,
// From, ReplyTo, FaultTo; "" omits the block, EPR fields carry the
// Address text) and body is the raw body span, spliced verbatim.
// Output is byte-identical to AppendRewritten over the parsed envelope
// with an equal-valued Headers: skim acceptance proves the body span is
// canonical serializer output for the skeleton's splice state, and the
// header values pass through the same escape-and-splice as the parse
// path.
func AppendSkimRewritten(dst []byte, v soap.Version, body []byte, fields *[len(fieldLocals)]string) ([]byte, error) {
	var vals [len(fieldLocals)]string
	var mask uint8
	n := 0
	for f, val := range fields {
		if val == "" {
			continue
		}
		vals[n] = val
		mask |= 1 << f
		n++
	}
	sk, err := skeletonFor(v, mask)
	if err != nil {
		return nil, err
	}
	return sk.AppendSpliced(dst, vals[:n], body)
}
