// Package refcodec is a frozen copy of the original (seed) xmlsoap
// serializer: strings.Builder-based, rune-at-a-time escaping,
// fmt.Sprintf-generated prefixes. It exists solely as the byte-level
// oracle for the golden equivalence tests of the streaming codec — the
// wire format is the protocol contract, so every optimization of the
// live serializer must keep emitting exactly these bytes. Do not
// optimize or "fix" this package; change it only if the wire format is
// deliberately changed, together with the golden tests.
package refcodec

import (
	"fmt"
	"strings"

	"repro/internal/xmlsoap"
)

// Marshal is the seed xmlsoap.Marshal, byte for byte.
func Marshal(e *xmlsoap.Element) ([]byte, error) {
	var b strings.Builder
	gen := &prefixGen{assigned: map[string]string{}, used: map[string]bool{}}
	if err := writeElement(&b, e, nil, gen); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// MarshalDoc is the seed xmlsoap.MarshalDoc, byte for byte.
func MarshalDoc(e *xmlsoap.Element) ([]byte, error) {
	body, err := Marshal(e)
	if err != nil {
		return nil, err
	}
	return append([]byte(`<?xml version="1.0" encoding="UTF-8"?>`+"\n"), body...), nil
}

type prefixGen struct {
	assigned map[string]string
	used     map[string]bool
	n        int
}

func (g *prefixGen) prefixFor(uri string) string {
	if p, ok := g.assigned[uri]; ok {
		return p
	}
	p := xmlsoap.PreferredPrefixes[uri]
	if p == "" || g.used[p] {
		for {
			g.n++
			p = fmt.Sprintf("ns%d", g.n)
			if !g.used[p] {
				break
			}
		}
	}
	g.assigned[uri] = p
	g.used[p] = true
	return p
}

// scope is an immutable linked list of in-scope namespace bindings.
type scope struct {
	uri    string
	prefix string
	parent *scope
}

func (s *scope) lookup(uri string) (string, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if cur.uri == uri {
			return cur.prefix, true
		}
	}
	return "", false
}

func writeElement(b *strings.Builder, e *xmlsoap.Element, sc *scope, gen *prefixGen) error {
	if e == nil {
		return fmt.Errorf("xmlsoap: nil element")
	}
	if e.Name.Local == "" {
		return fmt.Errorf("xmlsoap: element with empty local name")
	}

	type decl struct{ prefix, uri string }
	var decls []decl
	localScope := sc

	qname := func(n xmlsoap.Name) string {
		if n.Space == "" {
			return n.Local
		}
		if p, ok := localScope.lookup(n.Space); ok {
			return p + ":" + n.Local
		}
		p := gen.prefixFor(n.Space)
		localScope = &scope{uri: n.Space, prefix: p, parent: localScope}
		decls = append(decls, decl{prefix: p, uri: n.Space})
		return p + ":" + n.Local
	}

	tag := qname(e.Name)
	b.WriteByte('<')
	b.WriteString(tag)
	for _, a := range e.Attrs {
		b.WriteByte(' ')
		b.WriteString(qname(a.Name))
		b.WriteString(`="`)
		escapeAttr(b, a.Value)
		b.WriteByte('"')
	}
	for _, d := range decls {
		fmt.Fprintf(b, ` xmlns:%s="`, d.prefix)
		escapeAttr(b, d.uri)
		b.WriteByte('"')
	}

	if e.Text == "" && len(e.Children) == 0 {
		b.WriteString("/>")
		return nil
	}
	b.WriteByte('>')
	if e.Text != "" {
		escapeText(b, e.Text)
	}
	for _, c := range e.Children {
		if err := writeElement(b, c, localScope, gen); err != nil {
			return err
		}
	}
	b.WriteString("</")
	b.WriteString(tag)
	b.WriteByte('>')
	return nil
}

func escapeText(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '\r':
			b.WriteString("&#13;")
		default:
			b.WriteRune(r)
		}
	}
}

func escapeAttr(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '&':
			b.WriteString("&amp;")
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '"':
			b.WriteString("&quot;")
		case '\n':
			b.WriteString("&#10;")
		case '\t':
			b.WriteString("&#9;")
		case '\r':
			b.WriteString("&#13;")
		default:
			b.WriteRune(r)
		}
	}
}
