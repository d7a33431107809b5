package xmlsoap

import (
	"bytes"
	"unicode"
	"unicode/utf8"
)

// This file is the byte-level tokenizer of the pull parser. It scans the
// input slice directly — no reader indirection, no token objects — and
// deliberately replicates encoding/xml's strict-mode token grammar byte
// for byte (names, attributes, entities, CDATA, comments, processing
// instructions, directives, \r normalization, character validation), so
// that the differential fuzz target against the frozen refparser oracle
// compares namespace/tree semantics rather than tokenizer trivia.

func (d *Decoder) syntaxAt(off int, msg string) error {
	return &SyntaxError{Msg: msg, Offset: off}
}

func (d *Decoder) eofErr() error {
	return &SyntaxError{Msg: "unexpected EOF", Offset: len(d.data)}
}

// skipSpace advances over XML whitespace.
func (d *Decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\r', '\n', '\t':
			d.pos++
		default:
			return
		}
	}
}

// nameByteTable marks the single-byte name characters; nameScanTable
// additionally admits bytes >= 0x80, which the scan accepts and the
// post-scan validation checks by rune.
var (
	nameByteTable [256]bool
	nameScanTable [256]bool
)

func init() {
	for c := 0; c < 256; c++ {
		nameByteTable[c] = isNameByte(byte(c))
		nameScanTable[c] = isNameByte(byte(c)) || c >= utf8.RuneSelf
	}
}

// qname is a scanned raw name: its full span plus the colon accounting a
// later prefix/local split needs, gathered in the same pass.
type qname struct {
	lo, hi     int
	firstColon int // index of the first ':', or -1
	colons     int
}

// scanName scans a raw (possibly prefixed) name at d.pos and validates it
// against the XML name production. ok=false with err==nil means the
// current byte cannot start a name — the caller supplies the contextual
// error, as encoding/xml does.
func (d *Decoder) scanName() (n qname, ok bool, err error) {
	data := d.data
	i := d.pos
	if i >= len(data) {
		return n, false, d.eofErr()
	}
	if c := data[i]; c < utf8.RuneSelf && !nameByteTable[c] {
		return n, false, nil
	}
	n.lo = i
	for i < len(data) && nameScanTable[data[i]] {
		i++
	}
	// The reference tokenizer reads one byte past the name; a name that
	// runs to end of input is therefore an unexpected-EOF error.
	if i >= len(data) {
		return n, false, d.eofErr()
	}
	n.hi = i
	span := data[n.lo:n.hi]
	n.firstColon = -1
	nonASCII := false
	for k := 0; k < len(span); k++ {
		switch c := span[k]; {
		case c == ':':
			if n.firstColon < 0 {
				n.firstColon = n.lo + k
			}
			n.colons++
		case c >= utf8.RuneSelf:
			nonASCII = true
		}
	}
	if nonASCII {
		if !validName(span) {
			return n, false, d.syntaxAt(n.lo, "invalid XML name: "+string(span))
		}
	} else if c := span[0]; !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':') {
		// All bytes are ASCII name bytes; only the first-character class
		// can still be wrong.
		return n, false, d.syntaxAt(n.lo, "invalid XML name: "+string(span))
	}
	d.pos = i
	return n, true, nil
}

// split separates the name into prefix and local spans with
// encoding/xml's semantics: more than one colon is invalid; a leading or
// trailing colon keeps the whole name (colon included) as the local part.
func (n qname) split() (preLo, preHi, locLo, locHi int, ok bool) {
	if n.colons > 1 {
		return 0, 0, 0, 0, false
	}
	if n.colons == 0 || n.firstColon == n.lo || n.firstColon == n.hi-1 {
		return n.lo, n.lo, n.lo, n.hi, true
	}
	return n.lo, n.firstColon, n.firstColon + 1, n.hi, true
}

// spanIs reports whether data[lo:hi] equals s.
func spanIs(data []byte, lo, hi int, s string) bool {
	return hi-lo == len(s) && string(data[lo:hi]) == s
}

// spanEq compares two short spans of data byte-wise; prefixes are a few
// bytes, so an inline loop beats a memeq call. An empty a-span (the
// default-namespace binding) never equals the non-empty prefix spans
// this is called with... unless both are empty, which resolveName's
// no-prefix branch already short-circuits.
func spanEq(data []byte, aLo, aHi, bLo, bHi int) bool {
	if aHi-aLo != bHi-bLo {
		return false
	}
	for k := 0; k < aHi-aLo; k++ {
		if data[aLo+k] != data[bLo+k] {
			return false
		}
	}
	return true
}

// --- character data ---

// scanText scans one character-data run starting at d.pos and returns a
// reference to its decoded bytes. Termination:
//
//	quote >= 0          — the quote byte (consumed); attribute values
//	quote < 0 && cdata  — "]]>" (consumed)
//	quote < 0 && !cdata — '<' (not consumed) or end of input
//
// Entity references are decoded, \r and \r\n are rewritten to \n, and
// the decoded content is validated for UTF-8 and the XML character
// range, all exactly as encoding/xml's text(). The "]]>" detection is a
// three-byte lookahead on raw input, which is equivalent to the
// reference tokenizer's two-bytes-of-history machine (with its reset at
// entity boundaries) because neither ']' nor '>' can occur inside an
// entity reference's raw bytes. Skip passes over everything else: the
// parseText, parseCDATA and parseAttr stop sets hold every byte the
// state machine or the Char check must see.
func (d *Decoder) scanText(quote int, cdata bool) (sref, error) {
	data := d.data
	start := d.pos
	segStart := start
	escStart := int32(len(d.esc))
	dirty := false
	ctx := parseText
	if cdata {
		ctx = parseCDATA
	} else if quote >= 0 {
		ctx = parseAttr
	}
	i := d.pos
	for {
		i = Skip(data, i, ctx)
		if i >= len(data) {
			if cdata {
				return sref{}, d.syntaxAt(i, "unexpected EOF in CDATA section")
			}
			if quote >= 0 {
				return sref{}, d.eofErr()
			}
			d.pos = i
			return d.finishText(start, segStart, escStart, dirty, i)
		}
		switch b := data[i]; b {
		case '<':
			if quote >= 0 {
				return sref{}, d.syntaxAt(i, "unescaped < inside quoted string")
			}
			d.pos = i
			return d.finishText(start, segStart, escStart, dirty, i)
		case '&':
			d.flushSeg(segStart, i, &dirty)
			ni, err := d.scanEntity(i)
			if err != nil {
				return sref{}, err
			}
			i = ni
			segStart = i
		case ']':
			if i+2 < len(data) && data[i+1] == ']' && data[i+2] == '>' {
				if cdata {
					ref, err := d.finishText(start, segStart, escStart, dirty, i)
					d.pos = i + 3
					return ref, err
				}
				return sref{}, d.syntaxAt(i, "unescaped ]]> not in CDATA section")
			}
			i++
		case '\r':
			d.flushSeg(segStart, i, &dirty)
			d.esc = append(d.esc, '\n')
			if i+1 < len(data) && data[i+1] == '\n' {
				i += 2
			} else {
				i++
			}
			segStart = i
		case '"', '\'':
			if int(b) == quote {
				d.pos = i + 1
				return d.finishText(start, segStart, escStart, dirty, i)
			}
			i++ // the other quote kind is ordinary content
		default: // a disallowed control byte or a multi-byte rune lead
			if b < utf8.RuneSelf {
				return sref{}, d.syntaxAt(i, "illegal character code in character data")
			}
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				return sref{}, d.syntaxAt(i, "invalid UTF-8")
			}
			if !isInCharacterRange(r) {
				return sref{}, d.syntaxAt(i, "illegal character code in character data")
			}
			i += size
		}
	}
}

// flushSeg moves the clean input segment [segStart, i) into the escape
// arena and marks the run dirty.
func (d *Decoder) flushSeg(segStart, i int, dirty *bool) {
	if i > segStart {
		d.esc = append(d.esc, d.data[segStart:i]...)
	}
	*dirty = true
}

// finishText closes a character-data run whose raw bytes ended at end
// (exclusive). Content was already validated inline by the scan (clean
// spans byte-by-byte, entity decodes at the reference).
func (d *Decoder) finishText(start, segStart int, escStart int32, dirty bool, end int) (sref, error) {
	if !dirty {
		if end > start {
			return sref{kind: refInput, lo: int32(start), hi: int32(end)}, nil
		}
		return sref{}, nil
	}
	if end > segStart {
		d.esc = append(d.esc, d.data[segStart:end]...)
	}
	return sref{kind: refEsc, lo: escStart, hi: int32(len(d.esc))}, nil
}

// scanEntity decodes one entity reference starting at the '&' at index i,
// appends the decoded bytes to the escape arena, and returns the index
// past the ';'. Strict mode: every malformed or unknown entity is an
// error. Numeric references beyond the Unicode range are rejected;
// surrogate code points decode to U+FFFD exactly as string(rune(n)) does
// in the reference tokenizer.
func (d *Decoder) scanEntity(i int) (int, error) {
	data := d.data
	j := i + 1
	if j >= len(data) {
		return 0, d.eofErr()
	}
	if data[j] == '#' {
		j++
		if j >= len(data) {
			return 0, d.eofErr()
		}
		base := uint64(10)
		if data[j] == 'x' {
			base = 16
			j++
			if j >= len(data) {
				return 0, d.eofErr()
			}
		}
		ds := j
		var n uint64
		tooBig := false
		for j < len(data) {
			c := data[j]
			var v uint64
			switch {
			case '0' <= c && c <= '9':
				v = uint64(c - '0')
			case base == 16 && 'a' <= c && c <= 'f':
				v = uint64(c-'a') + 10
			case base == 16 && 'A' <= c && c <= 'F':
				v = uint64(c-'A') + 10
			default:
				goto digitsDone
			}
			n = n*base + v
			if n > unicode.MaxRune {
				tooBig = true
				n = unicode.MaxRune + 1
			}
			j++
		}
		return 0, d.eofErr()
	digitsDone:
		if data[j] != ';' || j == ds || tooBig {
			return 0, d.syntaxAt(i, "invalid character entity")
		}
		r := rune(n)
		// Surrogate code points decode to U+FFFD (string(rune(n))
		// semantics, via AppendRune); everything else must be in the XML
		// character range, as the reference's end-of-run validation
		// enforces.
		if !isInCharacterRange(r) && !(0xD800 <= r && r <= 0xDFFF) {
			return 0, d.syntaxAt(i, "illegal character code in character reference")
		}
		d.esc = utf8.AppendRune(d.esc, r)
		return j + 1, nil
	}
	// Named entity: name bytes, then ';', then one of the five
	// predefined names (no DTD-declared entities in strict mode).
	ds := j
	for j < len(data) && (data[j] >= utf8.RuneSelf || isNameByte(data[j])) {
		j++
	}
	if j >= len(data) {
		return 0, d.eofErr()
	}
	if data[j] != ';' {
		return 0, d.syntaxAt(i, "invalid character entity")
	}
	var r byte
	switch string(data[ds:j]) {
	case "lt":
		r = '<'
	case "gt":
		r = '>'
	case "amp":
		r = '&'
	case "apos":
		r = '\''
	case "quot":
		r = '"'
	default:
		return 0, d.syntaxAt(i, "invalid character entity")
	}
	d.esc = append(d.esc, r)
	return j + 1, nil
}

// --- chunks and text accumulation ---

// handleChunk routes one decoded character-data run: whitespace-only runs
// are dropped (the tree stores significant text only), in-element runs
// accumulate on the open element, and non-whitespace outside the root is
// the typed ErrContentOutsideRoot.
func (d *Decoder) handleChunk(ref sref) error {
	view := d.refBytes(ref)
	if len(d.stack) == 0 {
		if len(bytes.TrimSpace(view)) != 0 {
			return &SyntaxError{Msg: "character data outside root element", Offset: d.pos, Err: ErrContentOutsideRoot}
		}
		return nil
	}
	if len(bytes.TrimSpace(view)) == 0 {
		return nil
	}
	d.appendText(d.stack[len(d.stack)-1].node, ref)
	return nil
}

// appendText accumulates a chunk on a node. The first chunk is kept
// in place; later chunks chain through Decoder.chunks and are joined
// once at materialization — no bytes move during the scan.
func (d *Decoder) appendText(idx int32, ref sref) {
	nd := &d.nodes[idx]
	if nd.text.kind == refNone {
		nd.text = ref
		return
	}
	link := int32(len(d.chunks))
	d.chunks = append(d.chunks, chunkLink{ref: ref, next: -1})
	if nd.extra < 0 {
		nd.extra = link
	} else {
		d.chunks[nd.extraTail].next = link
	}
	nd.extraTail = link
}

// --- tags ---

func (d *Decoder) startTag() error {
	data := d.data
	name, ok, err := d.scanName()
	if err != nil {
		return err
	}
	if !ok {
		return d.syntaxAt(d.pos, "expected element name after <")
	}
	nLo, nHi := name.lo, name.hi
	preLo, preHi, locLo, locHi, ok := name.split()
	if !ok {
		return d.syntaxAt(nLo, "expected element name after <")
	}

	d.rawAttrs = d.rawAttrs[:0]
	selfClose := false
	for {
		d.skipSpace()
		if d.pos >= len(data) {
			return d.eofErr()
		}
		b := data[d.pos]
		if b == '/' {
			d.pos++
			if d.pos >= len(data) {
				return d.eofErr()
			}
			if data[d.pos] != '>' {
				return d.syntaxAt(d.pos, "expected /> in element")
			}
			d.pos++
			selfClose = true
			break
		}
		if b == '>' {
			d.pos++
			break
		}
		aname, ok, err := d.scanName()
		if err != nil {
			return err
		}
		if !ok {
			return d.syntaxAt(d.pos, "expected attribute name in element")
		}
		apLo, apHi, alLo, alHi, ok := aname.split()
		if !ok {
			return d.syntaxAt(aname.lo, "expected attribute name in element")
		}
		d.skipSpace()
		if d.pos >= len(data) {
			return d.eofErr()
		}
		if data[d.pos] != '=' {
			return d.syntaxAt(d.pos, "attribute name without = in element")
		}
		d.pos++
		d.skipSpace()
		if d.pos >= len(data) {
			return d.eofErr()
		}
		q := data[d.pos]
		if q != '"' && q != '\'' {
			return d.syntaxAt(d.pos, "unquoted or missing attribute value in element")
		}
		d.pos++
		val, err := d.scanText(int(q), false)
		if err != nil {
			return err
		}
		d.rawAttrs = append(d.rawAttrs, rawAttr{
			preLo: int32(apLo), preHi: int32(apHi),
			locLo: int32(alLo), locHi: int32(alHi),
			off:   int32(aname.lo),
			value: val,
		})
	}

	// Namespace declarations on this element apply to its own name and
	// attributes; process them first, in document order (later wins).
	bindFloor := len(d.bindings)
	for k := range d.rawAttrs {
		a := &d.rawAttrs[k]
		switch {
		case spanIs(data, int(a.preLo), int(a.preHi), "xmlns"):
			if err := d.declarePrefix(a); err != nil {
				return err
			}
		case a.preLo == a.preHi && spanIs(data, int(a.locLo), int(a.locHi), "xmlns"):
			d.bindings = append(d.bindings, binding{uri: a.value})
		}
	}

	space, err := d.resolveName(int(preLo), int(preHi), int(locLo), int(locHi), true, nLo)
	if err != nil {
		return err
	}

	attrLo := int32(len(d.attrs))
	for k := range d.rawAttrs {
		a := &d.rawAttrs[k]
		if spanIs(data, int(a.preLo), int(a.preHi), "xmlns") ||
			(a.preLo == a.preHi && spanIs(data, int(a.locLo), int(a.locHi), "xmlns")) {
			continue // declarations are not attributes of the tree
		}
		aspace, err := d.resolveName(int(a.preLo), int(a.preHi), int(a.locLo), int(a.locHi), false, int(a.off))
		if err != nil {
			return err
		}
		d.attrs = append(d.attrs, pattr{
			space: aspace,
			local: d.localRef(int(a.locLo), int(a.locHi)),
			value: a.value,
		})
	}

	idx := int32(len(d.nodes))
	parent := int32(-1)
	if len(d.stack) == 0 {
		if d.root >= 0 {
			return &SyntaxError{Msg: "multiple root elements", Offset: nLo, Err: ErrMultipleRoots}
		}
		d.root = idx
	} else {
		parent = d.stack[len(d.stack)-1].node
		d.nodes[parent].nchild++
	}
	d.nodes = append(d.nodes, pnode{
		space:  space,
		local:  d.localRef(locLo, locHi),
		extra:  -1,
		parent: parent,
		attrLo: attrLo,
		attrHi: int32(len(d.attrs)),
	})
	if selfClose {
		d.bindings = d.bindings[:bindFloor]
	} else {
		d.stack = append(d.stack, openElem{
			node:      idx,
			bindFloor: int32(bindFloor),
			rawLo:     int32(nLo),
			rawHi:     int32(nHi),
		})
	}
	return nil
}

// localRef returns the local-part reference, interned when it is part of
// the hot vocabulary.
func (d *Decoder) localRef(lo, hi int) sref {
	if idx, ok := intern(d.data[lo:hi]); ok {
		return vocabRef(idx)
	}
	return sref{kind: refInput, lo: int32(lo), hi: int32(hi)}
}

// declarePrefix validates and records one xmlns:p="uri" declaration.
func (d *Decoder) declarePrefix(a *rawAttr) error {
	data := d.data
	if spanIs(data, int(a.locLo), int(a.locHi), "xmlns") {
		return &SyntaxError{Msg: "declaration of reserved prefix xmlns", Offset: int(a.off), Err: ErrReservedPrefix}
	}
	uriBytes := d.refBytes(a.value)
	if spanIs(data, int(a.locLo), int(a.locHi), "xml") {
		if string(uriBytes) != xmlNamespaceURL {
			return &SyntaxError{Msg: "prefix xml bound to a foreign namespace", Offset: int(a.off), Err: ErrReservedPrefix}
		}
		return nil // predeclared; nothing to record
	}
	if len(uriBytes) == 0 {
		return &SyntaxError{Msg: "empty URI in prefixed namespace declaration", Offset: int(a.off), Err: ErrEmptyPrefixBinding}
	}
	uri := a.value
	if idx, ok := intern(uriBytes); ok {
		uri = vocabRef(idx)
	}
	d.bindings = append(d.bindings, binding{prefixLo: a.locLo, prefixHi: a.locHi, uri: uri})
	return nil
}

// resolveName maps a prefix to its namespace reference. The default
// namespace applies to element names only; the reserved xml prefix is
// predeclared; an element literally named "xmlns" takes no default
// namespace (matching the reference parser's translation table).
func (d *Decoder) resolveName(preLo, preHi, locLo, locHi int, isElement bool, off int) (sref, error) {
	data := d.data
	if preLo == preHi {
		if !isElement || spanIs(data, locLo, locHi, "xmlns") {
			return sref{}, nil
		}
		for k := len(d.bindings) - 1; k >= 0; k-- {
			if d.bindings[k].prefixLo == d.bindings[k].prefixHi {
				return d.bindings[k].uri, nil
			}
		}
		return sref{}, nil
	}
	if spanIs(data, preLo, preHi, "xml") {
		return vocabRef(xmlNamespaceVocab), nil
	}
	if spanIs(data, preLo, preHi, "xmlns") {
		return sref{}, &SyntaxError{Msg: "name uses the reserved xmlns prefix", Offset: off, Err: ErrReservedPrefix}
	}
	for k := len(d.bindings) - 1; k >= 0; k-- {
		b := &d.bindings[k]
		if spanEq(data, int(b.prefixLo), int(b.prefixHi), preLo, preHi) {
			return b.uri, nil
		}
	}
	return sref{}, &SyntaxError{
		Msg:    "undeclared namespace prefix " + string(data[preLo:preHi]),
		Offset: off,
		Err:    ErrUndeclaredPrefix,
	}
}

func (d *Decoder) endTag() error {
	data := d.data
	// Fast path: the end tag almost always repeats the open tag's raw
	// name byte-for-byte, which was already validated at the start tag.
	// A clean match (followed by a non-name byte) skips the rescan.
	if len(d.stack) > 0 {
		top := d.stack[len(d.stack)-1]
		n := int(top.rawHi - top.rawLo)
		if len(data)-d.pos > n &&
			string(data[d.pos:d.pos+n]) == string(data[top.rawLo:top.rawHi]) {
			if c := data[d.pos+n]; c < utf8.RuneSelf && !nameByteTable[c] {
				d.pos += n
				d.skipSpace()
				if d.pos >= len(data) {
					return d.eofErr()
				}
				if data[d.pos] != '>' {
					return d.syntaxAt(d.pos, "invalid characters between </"+string(data[top.rawLo:top.rawHi])+" and >")
				}
				d.pos++
				d.bindings = d.bindings[:top.bindFloor]
				d.stack = d.stack[:len(d.stack)-1]
				return nil
			}
		}
	}
	name, ok, err := d.scanName()
	if err != nil {
		return err
	}
	if !ok {
		return d.syntaxAt(d.pos, "expected element name after </")
	}
	nLo, nHi := name.lo, name.hi
	if _, _, _, _, ok := name.split(); !ok {
		return d.syntaxAt(nLo, "expected element name after </")
	}
	d.skipSpace()
	if d.pos >= len(data) {
		return d.eofErr()
	}
	if data[d.pos] != '>' {
		return d.syntaxAt(d.pos, "invalid characters between </"+string(data[nLo:nHi])+" and >")
	}
	d.pos++
	if len(d.stack) == 0 {
		return d.syntaxAt(nLo, "unexpected end element </"+string(data[nLo:nHi])+">")
	}
	top := d.stack[len(d.stack)-1]
	if !bytes.Equal(data[top.rawLo:top.rawHi], data[nLo:nHi]) {
		return d.syntaxAt(nLo, "element <"+string(data[top.rawLo:top.rawHi])+"> closed by </"+string(data[nLo:nHi])+">")
	}
	d.bindings = d.bindings[:top.bindFloor]
	d.stack = d.stack[:len(d.stack)-1]
	return nil
}

// --- processing instructions, comments, CDATA, directives ---

var (
	piVersion  = []byte("version=")
	piEncoding = []byte("encoding=")
	utf8Name   = []byte("utf-8")
	xml10      = []byte("1.0")
)

func (d *Decoder) procInst() error {
	data := d.data
	target, ok, err := d.scanName()
	if err != nil {
		return err
	}
	if !ok {
		return d.syntaxAt(d.pos, "expected target name after <?")
	}
	tLo, tHi := target.lo, target.hi
	d.skipSpace()
	bodyLo := d.pos
	i := d.pos
	for {
		if i+1 >= len(data) {
			return d.eofErr()
		}
		if data[i] == '?' && data[i+1] == '>' {
			break
		}
		i++
	}
	content := data[bodyLo:i]
	d.pos = i + 2
	if spanIs(data, tLo, tHi, "xml") {
		if string(content) == stdPrologBody {
			return nil // the prolog this stack emits; nothing to check
		}
		if ver := procInstParam(content, piVersion); len(ver) != 0 && !bytes.Equal(ver, xml10) {
			return d.syntaxAt(bodyLo, "unsupported XML version "+string(ver))
		}
		if enc := procInstParam(content, piEncoding); len(enc) != 0 && !bytes.EqualFold(enc, utf8Name) {
			return d.syntaxAt(bodyLo, "unsupported document encoding "+string(enc))
		}
	}
	return nil
}

// stdPrologBody is the body of the XML declaration this package's own
// serializer emits (see Prolog) — the overwhelmingly common case on the
// dispatch path, checked with one comparison.
const stdPrologBody = `version="1.0" encoding="UTF-8"`

// procInstParam extracts a pseudo-attribute from a processing-instruction
// body with the reference tokenizer's (deliberately lax) matcher. param
// includes the trailing '='.
func procInstParam(s, param []byte) []byte {
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := bytes.Index(sub, param)
		if k < 0 || lenp+k >= len(sub) {
			return nil
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return nil
	}
	j := bytes.IndexByte(s[i:], sep)
	if j < 0 {
		return nil
	}
	return s[i : i+j]
}

// bang dispatches after "<!": comment, CDATA section, or directive.
func (d *Decoder) bang() error {
	data := d.data
	if d.pos >= len(data) {
		return d.eofErr()
	}
	switch data[d.pos] {
	case '-':
		d.pos++
		if d.pos >= len(data) {
			return d.eofErr()
		}
		if data[d.pos] != '-' {
			return d.syntaxAt(d.pos, "invalid sequence <!- not part of <!--")
		}
		d.pos++
		var b0, b1 byte
		i := d.pos
		for {
			if i >= len(data) {
				return d.eofErr()
			}
			b := data[i]
			i++
			if b0 == '-' && b1 == '-' {
				if b != '>' {
					return d.syntaxAt(i-1, `invalid sequence "--" not allowed in comments`)
				}
				d.pos = i
				return nil
			}
			b0, b1 = b1, b
		}
	case '[':
		d.pos++
		for k := 0; k < 6; k++ {
			if d.pos >= len(data) {
				return d.eofErr()
			}
			if data[d.pos] != "CDATA["[k] {
				return d.syntaxAt(d.pos, "invalid <![ sequence")
			}
			d.pos++
		}
		ref, err := d.scanText(-1, true)
		if err != nil {
			return err
		}
		return d.handleChunk(ref)
	}
	return d.directive()
}

// directive skips a <!DOCTYPE ...>-style directive with the reference
// tokenizer's nesting rules: quoted angle brackets do not nest, embedded
// comments are skipped wholesale, and a bare '>' at depth zero ends it.
// The first byte after "<!" is stored without inspection, exactly as the
// reference does.
func (d *Decoder) directive() error {
	data := d.data
	var inquote byte
	depth := 0
	i := d.pos + 1
	for {
		if i >= len(data) {
			return d.eofErr()
		}
		b := data[i]
		i++
		if inquote == 0 && b == '>' && depth == 0 {
			d.pos = i
			return nil
		}
	handleB:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
			// quoted: no special action
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			// A nested "<!--" comment is skipped without affecting
			// depth; any other '<' nests.
			for k := 0; k < 3; k++ {
				if i >= len(data) {
					return d.eofErr()
				}
				nb := data[i]
				i++
				if nb != "!--"[k] {
					depth++
					b = nb
					goto handleB
				}
			}
			var b0, b1 byte
			for {
				if i >= len(data) {
					return d.eofErr()
				}
				cb := data[i]
				i++
				if b0 == '-' && b1 == '-' && cb == '>' {
					break
				}
				b0, b1 = b1, cb
			}
		}
	}
}
