package httpx

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// headerKV is one header field as it appeared on the wire (or as Set stored
// it): key keeps its original spelling, value is already trimmed. For parsed
// messages both strings alias the message's pooled head buffer.
type headerKV struct {
	key, value string
}

// inlineHeaderKVs is how many header fields a message carries before Header
// spills to a heap slice. SOAP traffic runs 2–3 headers per message
// (Content-Type, Content-Length, Host, sometimes SOAPAction or the auth
// token), so a small inline array makes steady-state head parsing
// allocation-free without bloating every message struct — Header is
// embedded by value in Request and Response.
const inlineHeaderKVs = 4

// Header holds HTTP headers as single-valued, case-insensitive keys stored
// in wire order. SOAP traffic never needs repeated header fields, so a flat
// list keeps the codec small; the last write wins on duplicates (matching
// the previous map-based Header, which is frozen as the refhead oracle).
//
// Keys are stored with whatever spelling they arrived with and compared
// without rewriting: two keys are the same header iff their canonical forms
// (CanonicalKey) are equal, which for ASCII keys is a plain case-insensitive
// compare. Rendering (appendWire) emits canonical-case keys in sorted
// order, so wire output is byte-identical to the map era.
//
// The zero value is an empty, ready-to-use Header. Methods take pointer
// receivers; copying a Header value gives an independent view for the
// inline fields (a shared spill slice is fine because nothing mutates
// through a copy on the paths that copy — Client.Do's shallow request
// copy never touches headers).
type Header struct {
	n      int
	inline [inlineHeaderKVs]headerKV
	spill  []headerKV // fields inline has no room for
}

// CanonicalKey converts k to HTTP canonical form (Content-Type,
// SOAPAction → Soapaction is avoided by special-casing known mixed-case
// names). Keys already in canonical form — the overwhelmingly common
// case on the wire, and every render pays this call — are returned
// unchanged without allocating.
func CanonicalKey(k string) string {
	if isCanonicalKey(k) {
		return k
	}
	// Known names whose conventional spelling is not dash-canonical.
	switch strings.ToLower(k) {
	case "soapaction":
		return "SOAPAction"
	case "www-authenticate":
		return "WWW-Authenticate"
	}
	parts := strings.Split(k, "-")
	for i, p := range parts {
		if p == "" {
			continue
		}
		parts[i] = strings.ToUpper(p[:1]) + strings.ToLower(p[1:])
	}
	return strings.Join(parts, "-")
}

// isCanonicalKey reports whether the slow path above would return k
// unchanged: segment-initial letters uppercase, all other letters
// lowercase, with the two special spellings matched exactly (any other
// casing of them must take the slow path to be rewritten).
func isCanonicalKey(k string) bool {
	if k == "SOAPAction" || k == "WWW-Authenticate" {
		return true
	}
	if strings.EqualFold(k, "SOAPAction") || strings.EqualFold(k, "WWW-Authenticate") {
		return false
	}
	segStart := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		if c == '-' {
			segStart = true
			continue
		}
		if segStart {
			if 'a' <= c && c <= 'z' {
				return false
			}
			segStart = false
			continue
		}
		if 'A' <= c && c <= 'Z' {
			return false
		}
	}
	return true
}

// asciiEqualFold reports whether a and b are equal under ASCII case
// folding only. It allocates nothing and never considers Unicode fold
// pairs (so the Kelvin sign does not match 'k', which is what HTTP wants).
func asciiEqualFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// sameKey reports whether two header-key spellings name the same header:
// equal canonical forms. One pass folds ASCII case byte by byte, with no
// allocation, and answers at the first ASCII mismatch: up to there both
// keys are ASCII and canonicalize byte for byte alike, so the canonical
// forms differ there too. Only a byte >= 0x80 met first falls back to
// comparing canonical forms, because Unicode case mapping can identify
// byte strings ASCII folding cannot (U+212A 'K' lowercases to 'k'), and
// the frozen map oracle deduplicated by exactly that relation. A key
// that is an ASCII prefix of a longer one never matches it: the longer
// key canonicalizes to more characters.
func sameKey(a, b string) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if ca|cb >= utf8.RuneSelf {
			return CanonicalKey(a) == CanonicalKey(b)
		}
		if ca == cb {
			continue
		}
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return len(a) == len(b)
}

// at returns the i'th field.
func (h *Header) at(i int) *headerKV {
	if i < inlineHeaderKVs {
		return &h.inline[i]
	}
	return &h.spill[i-inlineHeaderKVs]
}

// Len reports the number of header fields.
func (h *Header) Len() int { return h.n }

// Range calls f for each header field in wire order, stopping early if f
// returns false. Keys are reported with their stored spelling; canonicalize
// with CanonicalKey if a stable form is needed.
func (h *Header) Range(f func(key, value string) bool) {
	for i := 0; i < h.n; i++ {
		kv := h.at(i)
		if !f(kv.key, kv.value) {
			return
		}
	}
}

// index returns the position of key's field, or -1.
func (h *Header) index(key string) int {
	for i := 0; i < h.n; i++ {
		if sameKey(h.at(i).key, key) {
			return i
		}
	}
	return -1
}

// Set stores value under key, replacing any existing spelling of it.
func (h *Header) Set(key, value string) {
	if i := h.index(key); i >= 0 {
		h.at(i).value = value
		return
	}
	h.append(key, value)
}

// append adds a field without the duplicate scan; Set (which both the
// parser and construction paths go through) does the scan first.
func (h *Header) append(key, value string) {
	if h.n < inlineHeaderKVs {
		h.inline[h.n] = headerKV{key, value}
	} else {
		h.spill = append(h.spill, headerKV{key, value})
	}
	h.n++
}

// Get returns the value stored under key, or "".
func (h *Header) Get(key string) string {
	if i := h.index(key); i >= 0 {
		return h.at(i).value
	}
	return ""
}

// Del removes key.
func (h *Header) Del(key string) {
	i := h.index(key)
	if i < 0 {
		return
	}
	for j := i; j < h.n-1; j++ {
		*h.at(j) = *h.at(j + 1)
	}
	h.n--
	if h.n >= inlineHeaderKVs {
		h.spill = h.spill[:h.n-inlineHeaderKVs]
	} else {
		h.spill = h.spill[:0]
	}
}

// Has reports whether key is present.
func (h *Header) Has(key string) bool { return h.index(key) >= 0 }

// Reset empties the header in place, keeping the spill slice's capacity
// for the next fill. Stale entries are zeroed so a reused Header (one
// embedded in a connection's Exchange) does not pin strings that alias a
// released pooled buffer.
func (h *Header) Reset() {
	n := h.n
	if n > inlineHeaderKVs {
		n = inlineHeaderKVs
	}
	for i := 0; i < n; i++ {
		h.inline[i] = headerKV{}
	}
	for i := range h.spill {
		h.spill[i] = headerKV{}
	}
	h.spill = h.spill[:0]
	h.n = 0
}

// Clone returns a deep copy whose keys and values are detached from any
// pooled head buffer the original aliased.
func (h *Header) Clone() Header {
	var c Header
	for i := 0; i < h.n; i++ {
		kv := h.at(i)
		c.append(strings.Clone(kv.key), strings.Clone(kv.value))
	}
	return c
}

// Detach copies every key and value out of the pooled head buffer in
// place. Call it on a header that must outlive its message's Release —
// the head-side twin of Element.Detach for tree strings.
func (h *Header) Detach() {
	for i := 0; i < h.n; i++ {
		kv := h.at(i)
		kv.key = strings.Clone(kv.key)
		kv.value = strings.Clone(kv.value)
	}
}

// wireKeyScratch is the stack scratch appendWire sorts header keys in. More
// keys than this simply spill the scratch slice to the heap (append grows
// it); the constant is named — and the spill tested — so the limit is a
// deliberate fast-path size, not a silent cap.
const wireKeyScratch = 16

// appendWire renders headers in sorted canonical-key order (deterministic
// wire output makes tests and traces stable) followed by the blank line,
// appending to b. Bodies are always fully buffered, so the framing is
// always Content-Length, emitted from contentLength: a stored
// Content-Length is overridden, and a stored Transfer-Encoding
// (hop-by-hop, left over from a chunked read) is dropped.
// hostIfMissing supplies Host only when absent, and forceClose overrides
// Connection with "close" — all without touching the stored fields, so
// encoding never copies them. The key scratch lives on the stack for
// the header counts SOAP traffic has.
func (h *Header) appendWire(b []byte, contentLength int, hostIfMissing string, forceClose bool) []byte {
	type wireKV struct {
		key   string // canonical form
		value string
		kind  byte // 0 stored, 1 Content-Length, 2 Host, 3 Connection: close
	}
	var arr [wireKeyScratch]wireKV
	keys := arr[:0]
	for i := 0; i < h.n; i++ {
		kv := h.at(i)
		ck := CanonicalKey(kv.key)
		if ck == "Content-Length" || ck == "Transfer-Encoding" {
			continue
		}
		if forceClose && ck == "Connection" {
			continue
		}
		keys = append(keys, wireKV{key: ck, value: kv.value})
	}
	keys = append(keys, wireKV{key: "Content-Length", kind: 1})
	if hostIfMissing != "" && !h.Has("Host") {
		keys = append(keys, wireKV{key: "Host", kind: 2})
	}
	if forceClose {
		keys = append(keys, wireKV{key: "Connection", kind: 3})
	}
	// Insertion sort: n is tiny and this avoids sort.Slice's interface
	// machinery on the hot path.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j].key < keys[j-1].key; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	for _, kv := range keys {
		b = append(b, kv.key...)
		b = append(b, ':', ' ')
		switch kv.kind {
		case 1:
			b = strconv.AppendInt(b, int64(contentLength), 10)
		case 2:
			b = append(b, hostIfMissing...)
		case 3:
			b = append(b, "close"...)
		default:
			b = append(b, kv.value...)
		}
		b = append(b, '\r', '\n')
	}
	return append(b, '\r', '\n')
}
