package soap

import (
	"bytes"
	"errors"
	"strings"
	"unicode/utf8"

	"repro/internal/xmlsoap"
)

// The RPC codec renders and reads SOAP-RPC envelopes straight between
// parameters and bytes, with no element tree; see "RPC codec" in the
// package doc for the canonical form and the decline rules.

// rpcFrame is the constant framing of a header-less envelope of one
// version, exactly as the serializer writes it.
type rpcFrame struct {
	open   string // prolog, Envelope and Body start tags
	close  string // Body and Envelope end tags
	prefix string // the envelope prefix, in scope at the wrapper
}

var rpcFrames = [2]rpcFrame{
	{
		open:   xmlsoap.Prolog + `<soapenv:Envelope xmlns:soapenv="` + NS11 + `"><soapenv:Body>`,
		close:  `</soapenv:Body></soapenv:Envelope>`,
		prefix: "soapenv",
	},
	{
		open:   xmlsoap.Prolog + `<soap12:Envelope xmlns:soap12="` + NS12 + `"><soap12:Body>`,
		close:  `</soap12:Body></soap12:Envelope>`,
		prefix: "soap12",
	},
}

func frameFor(v Version) *rpcFrame {
	if v == V12 {
		return &rpcFrames[1]
	}
	return &rpcFrames[0]
}

// errRPCName is AppendRPC's refusal of an empty element name, which the
// tree serializer refuses too.
var errRPCName = errors.New("soap: RPC operation and parameter names must not be empty")

// AppendRPC appends a SOAP-RPC request envelope to dst: one wrapper
// element named operation in serviceNS, one unqualified child per
// parameter. The bytes equal the element tree's render through
// wsa.AppendEnvelope, and appending into a reused dst allocates nothing.
func AppendRPC(dst []byte, v Version, serviceNS, operation string, params ...Param) ([]byte, error) {
	return appendRPC(dst, v, serviceNS, operation, "", params)
}

// AppendRPCResponse is AppendRPC for the <operationResponse> wrapper that
// answers a call.
func AppendRPCResponse(dst []byte, v Version, serviceNS, operation string, results ...Param) ([]byte, error) {
	return appendRPC(dst, v, serviceNS, operation, "Response", results)
}

func appendRPC(dst []byte, v Version, ns, op, suffix string, params []Param) ([]byte, error) {
	if op == "" && suffix == "" {
		return dst, errRPCName
	}
	for _, p := range params {
		if p.Name == "" {
			return dst, errRPCName
		}
	}
	f := frameFor(v)
	dst = append(dst, f.open...)
	dst = append(dst, '<')
	tag := len(dst)
	pfx, declare := wrapperPrefix(f, v, ns)
	if pfx != "" {
		dst = append(dst, pfx...)
		dst = append(dst, ':')
	}
	dst = append(dst, op...)
	dst = append(dst, suffix...)
	tagEnd := len(dst)
	if declare {
		dst = append(dst, ` xmlns:`...)
		dst = append(dst, pfx...)
		dst = append(dst, '=', '"')
		dst = xmlsoap.AppendEscapedAttr(dst, ns)
		dst = append(dst, '"')
	}
	if len(params) == 0 {
		dst = append(dst, '/', '>')
		return append(dst, f.close...), nil
	}
	dst = append(dst, '>')
	for _, p := range params {
		dst = append(dst, '<')
		dst = append(dst, p.Name...)
		if p.Value == "" {
			dst = append(dst, '/', '>')
			continue
		}
		dst = append(dst, '>')
		dst = xmlsoap.AppendEscapedText(dst, p.Value)
		dst = append(dst, '<', '/')
		dst = append(dst, p.Name...)
		dst = append(dst, '>')
	}
	dst = append(dst, '<', '/')
	dst = append(dst, dst[tag:tagEnd]...)
	dst = append(dst, '>')
	return append(dst, f.close...), nil
}

// wrapperPrefix is the prefix the serializer gives the wrapper's
// namespace at the body splice point of a header-less envelope, where
// only the envelope prefix is bound and assigned: none for no namespace,
// the envelope prefix for the envelope namespace, and otherwise a fresh
// declaration of the preferred prefix or the first generated one.
func wrapperPrefix(f *rpcFrame, v Version, ns string) (prefix string, declare bool) {
	switch ns {
	case "":
		return "", false
	case v.NS():
		return f.prefix, false
	}
	if p := xmlsoap.PreferredPrefixes[ns]; p != "" && p != f.prefix {
		return p, true
	}
	return "ns1", true
}

// EnvelopeError is the error DecodeRPC and DecodeRPCResponse return when
// data is not a SOAP envelope at all, as opposed to an envelope whose
// body is not the expected call or response. Its text is the Parse
// error's.
type EnvelopeError struct{ Err error }

func (e *EnvelopeError) Error() string { return e.Err.Error() }

func (e *EnvelopeError) Unwrap() error { return e.Err }

// DecodeRPC decodes a SOAP-RPC request, appending its parameters to
// params[:0], and returns the call and the envelope's version. It reads
// the canonical form AppendRPC writes without building a tree and hands
// anything else to Parse and ParseRPC, whose results, *Fault errors and
// error strings it returns unchanged; a Parse failure comes wrapped in
// *EnvelopeError. Decoding an entity-free canonical call into params with
// room for its parameters allocates nothing. See "RPC codec" in the
// package doc for which strings alias data.
func DecodeRPC(data []byte, params []Param) (Call, Version, error) {
	v, ns, name, out, ok := decodeCanonical(data, params[:0])
	if ok && name != "Fault" {
		return Call{ServiceNS: ns, Operation: name, Params: out}, v, nil
	}
	env, err := Parse(data)
	if err != nil {
		return Call{}, V11, &EnvelopeError{err}
	}
	call, err := readCall(env, params[:0])
	return call, env.Version, err
}

// DecodeRPCResponse decodes an <operationResponse> envelope, appending
// its result parameters to results[:0]. Like DecodeRPC it reads the
// canonical form directly and hands anything else to Parse and
// ParseRPCResponse, returning their results and errors unchanged, with a
// Parse failure wrapped in *EnvelopeError.
func DecodeRPCResponse(data []byte, operation string, results []Param) ([]Param, error) {
	_, _, name, out, ok := decodeCanonical(data, results[:0])
	if op, isResponse := strings.CutSuffix(name, "Response"); ok && isResponse && op == operation {
		return out, nil
	}
	env, err := Parse(data)
	if err != nil {
		return results[:0], &EnvelopeError{err}
	}
	return readResponse(env, operation, results[:0])
}

// maxDecode is Parse's input limit; the decoder declines beyond it so
// the fallback reports it.
const maxDecode = 1 << 30

// decodeCanonical reads a canonical RPC envelope: the prolog, a
// header-less envelope in the serializer's exact framing, and a body
// holding one <ns1:name xmlns:ns1="uri"> wrapper whose children are
// unprefixed leaf elements. It appends the parameters to params and
// reports ok = false on the first byte outside that form.
func decodeCanonical(data []byte, params []Param) (v Version, ns, name string, out []Param, ok bool) {
	out = params
	if len(data) > maxDecode {
		return
	}
	var f *rpcFrame
	switch {
	case hasLit(data, 0, rpcFrames[0].open):
		v, f = V11, &rpcFrames[0]
	case hasLit(data, 0, rpcFrames[1].open):
		v, f = V12, &rpcFrames[1]
	default:
		return
	}
	i := len(f.open)
	if !hasLit(data, i, "<ns1:") {
		return
	}
	nameLo := i + len("<ns1:")
	i = scanRPCName(data, nameLo)
	nameHi := i
	if nameHi == nameLo || !hasLit(data, i, ` xmlns:ns1="`) {
		return
	}
	uriLo := i + len(` xmlns:ns1="`)
	i = xmlsoap.Skip(data, uriLo, xmlsoap.CanonAttr)
	if i == uriLo || i >= len(data) || data[i] != '"' {
		return
	}
	ns = xmlsoap.ZeroCopyString(data[uriLo:i])
	name = xmlsoap.ZeroCopyString(data[nameLo:nameHi])
	i++
	if hasLit(data, i, "/>") {
		i += 2
	} else {
		if i >= len(data) || data[i] != '>' {
			return
		}
		i++
		var arena []byte
		for !hasLit(data, i, "</") {
			if i >= len(data) || data[i] != '<' {
				return
			}
			pLo := i + 1
			i = scanRPCName(data, pLo)
			if i == pLo {
				return
			}
			p := Param{Name: xmlsoap.ZeroCopyString(data[pLo:i])}
			if hasLit(data, i, "/>") {
				out = append(out, p)
				i += 2
				continue
			}
			if i >= len(data) || data[i] != '>' {
				return
			}
			var good bool
			if p.Value, i, arena, good = decodeText(data, i+1, arena); !good {
				return
			}
			if !hasLit(data, i, "</") || !hasLit(data, i+2, p.Name) || !hasLit(data, i+2+len(p.Name), ">") {
				return
			}
			i += len(p.Name) + 3
			out = append(out, p)
		}
		if !hasLit(data, i, "</ns1:") || !hasLit(data, i+len("</ns1:"), name) ||
			!hasLit(data, i+len("</ns1:")+len(name), ">") {
			return
		}
		i += len("</ns1:") + len(name) + 1
	}
	if len(data)-i != len(f.close) || !hasLit(data, i, f.close) {
		return
	}
	return v, ns, name, out, true
}

// decodeText reads a canonical text run starting at i, up to the '<'
// that ends it: printable ASCII, space, tab, newline and valid non-ASCII
// characters, with &amp; &lt; &gt; &quot; &apos; and &#13; as the only
// references. An entity-free run aliases data; a run with references is
// unescaped into arena, which is allocated once per decode with room for
// every byte after the first such run, so its strings never move. A run
// of whitespace alone reads as "", as Parse drops it.
func decodeText(data []byte, i int, arena []byte) (val string, end int, _ []byte, ok bool) {
	start := i
	dirty := false
	for {
		i = xmlsoap.Skip(data, i, xmlsoap.CanonText)
		if i >= len(data) {
			return "", 0, arena, false
		}
		c := data[i]
		if c == '<' {
			break
		}
		if c == '&' {
			_, n := canonEntity(data, i)
			if n == 0 {
				return "", 0, arena, false
			}
			dirty = true
			i += n
			continue
		}
		if c < utf8.RuneSelf { // '>', \r, another control or DEL
			return "", 0, arena, false
		}
		r, size := utf8.DecodeRune(data[i:])
		if (r == utf8.RuneError && size == 1) || r == 0xFFFE || r == 0xFFFF {
			return "", 0, arena, false
		}
		i += size
	}
	run := data[start:i]
	if dirty {
		if arena == nil {
			arena = make([]byte, 0, len(data)-start)
		}
		lo := len(arena)
		for j := 0; j < len(run); {
			k := bytes.IndexByte(run[j:], '&')
			if k < 0 {
				arena = append(arena, run[j:]...)
				break
			}
			arena = append(arena, run[j:j+k]...)
			c, n := canonEntity(run, j+k)
			arena = append(arena, c)
			j += k + n
		}
		run = arena[lo:]
	}
	if len(bytes.TrimSpace(run)) == 0 {
		return "", i, arena, true
	}
	return xmlsoap.ZeroCopyString(run), i, arena, true
}

// canonEntity decodes the reference at data[i] ('&'), returning its byte
// and length, or length 0 for a reference outside the canonical set.
func canonEntity(data []byte, i int) (byte, int) {
	switch {
	case hasLit(data, i, "&amp;"):
		return '&', 5
	case hasLit(data, i, "&lt;"):
		return '<', 4
	case hasLit(data, i, "&gt;"):
		return '>', 4
	case hasLit(data, i, "&quot;"):
		return '"', 6
	case hasLit(data, i, "&apos;"):
		return '\'', 6
	case hasLit(data, i, "&#13;"):
		return '\r', 5
	}
	return 0, 0
}

// scanRPCName returns the end of the ASCII XML name starting at i (i
// itself when there is none): a letter or '_', then letters, digits,
// '_', '-' and '.'.
func scanRPCName(data []byte, i int) int {
	if i >= len(data) || !(isLetter(data[i]) || data[i] == '_') {
		return i
	}
	for i++; i < len(data); i++ {
		c := data[i]
		if !(isLetter(c) || c == '_' || c == '-' || c == '.' || '0' <= c && c <= '9') {
			break
		}
	}
	return i
}

func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }

// hasLit reports whether data holds lit at i.
func hasLit(data []byte, i int, lit string) bool {
	return i >= 0 && len(data)-i >= len(lit) && string(data[i:i+len(lit)]) == lit
}
