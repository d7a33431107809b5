package xmlsoap_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/xmlsoap"
	"repro/internal/xmlsoap/refcodec"
	"repro/internal/xmlsoap/refparser"
)

// parseCorpusSize pins the generated corpus: a drop means a generator
// regression silently shrank parser coverage.
const parseCorpusSize = 1546

// parseCorpus generates the golden parse suite: 1546 deterministic trees
// built from structural shapes crossed with text and attribute variants
// (1404), a depth × content matrix (125), the parseable goldenCorpus
// serializer cases (16), and the standard wire envelope (1). Every tree
// is parse-faithful: its text survives the parser's whitespace-chunk
// rule, and a \r travels as &#13;, so Parse(Marshal(x)) must reproduce
// it exactly.
func parseCorpus() map[string]*xmlsoap.Element {
	const (
		env  = "http://schemas.xmlsoap.org/soap/envelope/"
		env2 = "http://www.w3.org/2003/05/soap-envelope"
		wsa  = "http://schemas.xmlsoap.org/ws/2004/08/addressing"
		foo  = "urn:example:foo"
		bar  = "urn:example:bar"
		baz  = "urn:example:baz"
	)
	corpus := make(map[string]*xmlsoap.Element)

	texts := []struct{ name, val string }{
		{"none", ""},
		{"plain", "hello"},
		{"escapes", `a&b<c>d`},
		{"padded", "  padded  "},
		{"unicode", "héllo — 日本語"},
		{"tabs", "tab\tand\nnewline"},
		{"quotes", `"quoted" & 'single'`},
		{"cdata-end", "x]]>y"},
		{"gt", "a>b"},
		{"entity-ish", "&entity;-looking"},
		{"multiline", "line1\nline2"},
		{"emoji", "\U0001F642 emoji"},
		{"carriage-return", "line1\r\nline2\rend"},
	}
	attrs := []struct {
		name string
		add  func(e *xmlsoap.Element)
	}{
		{"none", func(e *xmlsoap.Element) {}},
		{"plain", func(e *xmlsoap.Element) { e.SetAttr("", "a", "v") }},
		{"empty", func(e *xmlsoap.Element) { e.SetAttr("", "a", "") }},
		{"escaped", func(e *xmlsoap.Element) { e.SetAttr("", "a", "x&y<z>\"q\"\nnl\ttab") }},
		{"qualified", func(e *xmlsoap.Element) { e.SetAttr(bar, "qualified", "v2") }},
		{"pair", func(e *xmlsoap.Element) { e.SetAttr("", "a", "1").SetAttr("", "b", "2") }},
		{"soap", func(e *xmlsoap.Element) { e.SetAttr(env, "mustUnderstand", "1") }},
		{"unicode", func(e *xmlsoap.Element) { e.SetAttr("", "u", "ünïcode") }},
		{"carriage-return", func(e *xmlsoap.Element) { e.SetAttr("", "a", "x\ry\r\n") }},
	}
	// Each shape returns (root, carrier): the carrier node receives the
	// text/attr variant under test.
	shapes := []struct {
		name  string
		build func() (root, carrier *xmlsoap.Element)
	}{
		{"bare", func() (*xmlsoap.Element, *xmlsoap.Element) {
			e := xmlsoap.New("", "e")
			return e, e
		}},
		{"ns-root", func() (*xmlsoap.Element, *xmlsoap.Element) {
			e := xmlsoap.New(foo, "e")
			return e, e
		}},
		{"nested", func() (*xmlsoap.Element, *xmlsoap.Element) {
			c := xmlsoap.New(foo, "inner")
			return xmlsoap.New(foo, "outer").Add(c), c
		}},
		{"siblings", func() (*xmlsoap.Element, *xmlsoap.Element) {
			c := xmlsoap.New(foo, "mid")
			return xmlsoap.New(foo, "r").Add(xmlsoap.New(foo, "first"), c, xmlsoap.New(foo, "last")), c
		}},
		{"soap11", func() (*xmlsoap.Element, *xmlsoap.Element) {
			op := xmlsoap.New(foo, "op")
			root := xmlsoap.New(env, "Envelope").Add(
				xmlsoap.New(env, "Header").Add(xmlsoap.NewText(wsa, "To", "logical:echo")),
				xmlsoap.New(env, "Body").Add(op),
			)
			return root, op
		}},
		{"soap12", func() (*xmlsoap.Element, *xmlsoap.Element) {
			op := xmlsoap.New(foo, "op")
			return xmlsoap.New(env2, "Envelope").Add(xmlsoap.New(env2, "Body").Add(op)), op
		}},
		{"generated-prefixes", func() (*xmlsoap.Element, *xmlsoap.Element) {
			c := xmlsoap.New(baz, "c")
			return xmlsoap.New(foo, "a").Add(xmlsoap.New(bar, "b").Add(c)), c
		}},
		{"same-ns-chain", func() (*xmlsoap.Element, *xmlsoap.Element) {
			c := xmlsoap.New(foo, "leaf")
			return xmlsoap.New(foo, "a").Add(xmlsoap.New(foo, "b").Add(c)), c
		}},
		{"redeclare", func() (*xmlsoap.Element, *xmlsoap.Element) {
			c := xmlsoap.New(wsa, "EndpointReference")
			return xmlsoap.New(env, "Envelope").Add(
				xmlsoap.New(env, "Header").Add(xmlsoap.NewText(wsa, "To", "x")),
				xmlsoap.New(env, "Body").Add(c),
			), c
		}},
		{"text-then-children", func() (*xmlsoap.Element, *xmlsoap.Element) {
			e := xmlsoap.NewText(foo, "e", "lead text")
			e.Add(xmlsoap.New(foo, "child"))
			return e, e.Children[0]
		}},
		{"epr", func() (*xmlsoap.Element, *xmlsoap.Element) {
			props := xmlsoap.New(wsa, "ReferenceProperties").Add(xmlsoap.NewText("", "capability", "tok"))
			c := xmlsoap.NewText(wsa, "Address", "http://client:90/msg")
			return xmlsoap.New(wsa, "ReplyTo").Add(c, props), c
		}},
		{"wide", func() (*xmlsoap.Element, *xmlsoap.Element) {
			root := xmlsoap.New("", "wide")
			for i := 0; i < 5; i++ {
				root.Add(xmlsoap.New(fmt.Sprintf("urn:gen:%d", i), "c"))
			}
			c := xmlsoap.New("urn:gen:last", "c")
			root.Add(c)
			return root, c
		}},
	}

	for _, sh := range shapes {
		for _, tx := range texts {
			for _, at := range attrs {
				root, carrier := sh.build()
				if tx.val != "" {
					carrier.SetText(tx.val)
				}
				at.add(carrier)
				corpus[fmt.Sprintf("gen/%s/%s/%s", sh.name, tx.name, at.name)] = root
			}
		}
	}

	// Depth × text × attr matrix on a namespace-alternating chain.
	deepTexts := texts[:5]
	deepAttrs := attrs[:5]
	for depth := 1; depth <= 5; depth++ {
		for _, tx := range deepTexts {
			for _, at := range deepAttrs {
				spaces := []string{foo, bar, baz}
				root := xmlsoap.New(spaces[0], "d0")
				cur := root
				for i := 1; i <= depth*2; i++ {
					next := xmlsoap.New(spaces[i%3], fmt.Sprintf("d%d", i))
					cur.Add(next)
					cur = next
				}
				if tx.val != "" {
					cur.SetText(tx.val)
				}
				at.add(cur)
				corpus[fmt.Sprintf("deep/%d/%s/%s", depth, tx.name, at.name)] = root
			}
		}
	}

	// The serializer golden corpus (its parseable subset) and the
	// standard wire envelope.
	for name, tree := range goldenCorpus() {
		switch name {
		case "control-chars", "invalid-utf8":
			continue // serializer-only: not well-formed XML content
		}
		corpus["base/"+name] = tree
	}
	corpus["base/std-envelope"] = wireEnvelope()
	return corpus
}

// TestGoldenParse is the parse-side golden suite: for every corpus tree,
// the marshaled bytes must match the frozen seed serializer, both
// parsers must accept them with node-for-node identical trees, the
// parsed tree must equal the original (round-trip), and re-marshaling
// must reproduce the wire bytes exactly.
func TestGoldenParse(t *testing.T) {
	corpus := parseCorpus()
	if len(corpus) != parseCorpusSize {
		t.Fatalf("parse corpus has %d cases, want %d", len(corpus), parseCorpusSize)
	}
	for name, tree := range corpus {
		t.Run(name, func(t *testing.T) {
			wire, err := xmlsoap.Marshal(tree)
			if err != nil {
				t.Fatal(err)
			}
			seedWire, err := refcodec.Marshal(tree)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wire, seedWire) {
				t.Fatalf("marshal drift from seed codec:\nseed: %q\nnew:  %q", seedWire, wire)
			}

			got, err := xmlsoap.Parse(wire)
			if err != nil {
				t.Fatalf("pull parser rejected %q: %v", wire, err)
			}
			ref, err := refparser.Parse(wire)
			if err != nil {
				t.Fatalf("refparser rejected %q: %v", wire, err)
			}
			if !got.Equal(ref) {
				t.Fatalf("parser divergence on %q:\npull: %s\nref:  %s", wire, got, ref)
			}
			if !got.Equal(tree) {
				t.Fatalf("round-trip drift on %q:\norig:   %s\nparsed: %s", wire, tree, got)
			}

			again, err := xmlsoap.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, wire) {
				t.Fatalf("re-marshal drift:\n1st: %q\n2nd: %q", wire, again)
			}
		})
	}
}

// TestGoldenParseDoc re-runs the document-level path (prolog included)
// over a corpus sample, covering ParseReader and the XML-declaration
// fast path.
func TestGoldenParseDoc(t *testing.T) {
	for _, name := range []string{"base/std-envelope", "base/preferred-prefixes", "gen/soap11/escapes/soap"} {
		tree, ok := parseCorpus()[name]
		if !ok {
			t.Fatalf("corpus case %s missing", name)
		}
		t.Run(name, func(t *testing.T) {
			doc, err := xmlsoap.MarshalDoc(tree)
			if err != nil {
				t.Fatal(err)
			}
			got, err := xmlsoap.ParseReader(bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refparser.ParseReader(bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(ref) || !got.Equal(tree) {
				t.Fatalf("document parse drift:\norig: %s\ngot:  %s\nref:  %s", tree, got, ref)
			}
		})
	}
}
