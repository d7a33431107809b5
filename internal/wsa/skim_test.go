package wsa

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/soap"
	"repro/internal/xmlsoap"
)

// skimTestBodies mirrors the skeleton golden suite's body shapes:
// namespace reuse, escaping, attribute-triggered declarations, and the
// wsa namespace reappearing inside the payload.
func skimTestBodies() map[string]*xmlsoap.Element {
	return map[string]*xmlsoap.Element{
		"simple":      xmlsoap.NewText("urn:wsd:echo", "echo", "payload"),
		"escaped":     xmlsoap.NewText("urn:wsd:echo", "echo", `a&b<c>d"e`),
		"foreign-ns":  xmlsoap.New("urn:x:1", "op").Add(xmlsoap.New("urn:x:2", "inner")),
		"wsa-in-body": xmlsoap.New("urn:x:1", "op").Add(xmlsoap.New(NS, "EndpointReference")),
		"attrs":       xmlsoap.New("urn:x:1", "op").SetAttr("", "k", "v<&>").SetAttr("urn:x:2", "q", "w"),
	}
}

func skimTestEnvelope(v soap.Version, mask int, body *xmlsoap.Element) *soap.Envelope {
	env := soap.New(v)
	for f, local := range fieldLocals {
		if mask&(1<<f) == 0 {
			continue
		}
		val := "urn:q:" + local
		if f < eprFieldStart {
			env.AddHeader(xmlsoap.NewText(NS, local, val))
		} else {
			env.AddHeader((&EPR{Address: val}).Element(local))
		}
	}
	return env.SetBody(body.Clone())
}

// TestSkimGoldenAllShapes: for every (version, header shape, body
// shape), the skim must accept the canonical wire form, extract exactly
// the values the parse path would, and the identity rewrite must
// reproduce the input byte for byte.
func TestSkimGoldenAllShapes(t *testing.T) {
	bodies := skimTestBodies()
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for mask := 0; mask < 1<<len(fieldLocals); mask++ {
			for bodyName, body := range bodies {
				env := skimTestEnvelope(v, mask, body)
				raw, err := MarshalEnvelope(env)
				if err != nil {
					t.Fatal(err)
				}
				var sk Skim
				if !SkimEnvelope(raw, &sk) {
					t.Fatalf("%s mask %02x body %s: skim declined canonical envelope %q", v, mask, bodyName, raw)
				}
				if sk.Version != v {
					t.Fatalf("version mismatch: got %s want %s", sk.Version, v)
				}
				var fields [len(fieldLocals)]string
				sk.Fields(&fields)
				for f, local := range fieldLocals {
					want := ""
					if mask&(1<<f) != 0 {
						want = "urn:q:" + local
					}
					if fields[f] != want {
						t.Fatalf("%s mask %02x: field %s = %q, want %q", v, mask, local, fields[f], want)
					}
				}
				got, err := AppendSkimRewritten(nil, sk.Version, sk.Body, &fields)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, raw) {
					t.Fatalf("%s mask %02x body %s: identity rewrite drift:\nin:  %q\nout: %q", v, mask, bodyName, raw, got)
				}
			}
		}
	}
}

// TestSkimRewriteMatchesParsePath drives the dispatcher's actual
// rewrite (To and ReplyTo replaced) through both paths and requires
// byte-identical output — including a destination URL that needs
// escaping.
func TestSkimRewriteMatchesParsePath(t *testing.T) {
	for _, dest := range []string{
		"http://backend:9000/echo",
		"http://backend:9000/echo?a=1&b=<2>",
	} {
		env := soap.New(soap.V11).
			AddHeader(xmlsoap.NewText(NS, "To", "wsd://echo")).
			AddHeader(xmlsoap.NewText(NS, "Action", "urn:echo")).
			AddHeader(xmlsoap.NewText(NS, "MessageID", "urn:uuid:1234")).
			AddHeader((&EPR{Address: Anonymous}).Element("ReplyTo")).
			SetBody(xmlsoap.NewText("urn:wsd:echo", "echo", "hi"))
		raw, err := MarshalEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}

		var sk Skim
		if !SkimEnvelope(raw, &sk) {
			t.Fatalf("skim declined canonical envelope %q", raw)
		}
		var fields [len(fieldLocals)]string
		sk.Fields(&fields)
		fields[0] = dest
		fields[5] = "http://wsd:9100/msg"
		got, err := AppendSkimRewritten(nil, sk.Version, sk.Body, &fields)
		if err != nil {
			t.Fatal(err)
		}

		parsed, err := soap.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		h, err := FromEnvelope(parsed)
		if err != nil {
			t.Fatal(err)
		}
		rewritten := *h
		rewritten.To = dest
		rewritten.ReplyTo = &EPR{Address: "http://wsd:9100/msg"}
		want, err := AppendRewritten(nil, parsed, &rewritten)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rewrite drift for dest %q:\nskim:  %q\nparse: %q", dest, got, want)
		}
	}
}

// TestSkimNonCanonicalHeaderOrder: the skim accepts canonical blocks in
// any order with duplicates (last wins, like FromEnvelope) as long as
// each block is individually canonical.
func TestSkimNonCanonicalHeaderOrder(t *testing.T) {
	raw := []byte(xmlsoap.Prolog +
		`<soapenv:Envelope xmlns:soapenv="` + soap.NS11 + `">` +
		`<soapenv:Header>` +
		`<wsa:Action xmlns:wsa="` + NS + `">urn:first</wsa:Action>` +
		`<wsa:To xmlns:wsa="` + NS + `">wsd://echo</wsa:To>` +
		`<wsa:Action xmlns:wsa="` + NS + `">urn:second</wsa:Action>` +
		`</soapenv:Header>` +
		`<soapenv:Body><ns1:op xmlns:ns1="urn:e">x</ns1:op></soapenv:Body>` +
		`</soapenv:Envelope>`)
	var sk Skim
	if !SkimEnvelope(raw, &sk) {
		t.Fatalf("skim declined reordered canonical blocks")
	}
	if string(sk.To) != "wsd://echo" || string(sk.Action) != "urn:second" {
		t.Fatalf("last-wins extraction failed: To=%q Action=%q", sk.To, sk.Action)
	}

	// The rewrite must match the parse path for the same header values.
	var fields [len(fieldLocals)]string
	sk.Fields(&fields)
	got, err := AppendSkimRewritten(nil, sk.Version, sk.Body, &fields)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := soap.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	h, err := FromEnvelope(parsed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := AppendRewritten(nil, parsed, h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("rewrite drift:\nskim:  %q\nparse: %q", got, want)
	}
}

// TestSkimDeclines enumerates inputs the skim must hand to the full
// parser: non-canonical framing, constructs whose re-render would
// differ, and malformed XML. Declining is the only acceptable verdict
// for each.
func TestSkimDeclines(t *testing.T) {
	const pre = xmlsoap.Prolog
	const envOpen = `<soapenv:Envelope xmlns:soapenv="` + soap.NS11 + `">`
	const envClose = `</soapenv:Envelope>`
	wrap := func(body string) string {
		return pre + envOpen + `<soapenv:Body>` + body + `</soapenv:Body>` + envClose
	}
	hdr := func(blocks string) string {
		return pre + envOpen + `<soapenv:Header>` + blocks + `</soapenv:Header>` +
			`<soapenv:Body><ns1:op xmlns:ns1="urn:e">x</ns1:op></soapenv:Body>` + envClose
	}
	cases := map[string]string{
		"empty":                 "",
		"no-prolog":             envOpen + `<soapenv:Body><ns1:op xmlns:ns1="urn:e">x</ns1:op></soapenv:Body>` + envClose,
		"space-before-prolog":   " " + wrap(`<ns1:op xmlns:ns1="urn:e">x</ns1:op>`),
		"foreign-root":          pre + `<x/>`,
		"nonpreferred-prefix":   pre + `<s:Envelope xmlns:s="` + soap.NS11 + `"><s:Body><ns1:op xmlns:ns1="urn:e">x</ns1:op></s:Body></s:Envelope>`,
		"empty-body":            pre + envOpen + `<soapenv:Body/>` + envClose,
		"body-level-text":       wrap(`text<ns1:op xmlns:ns1="urn:e">x</ns1:op>`),
		"open-close-empty":      wrap(`<ns1:op xmlns:ns1="urn:e"></ns1:op>`),
		"ws-only-text":          wrap(`<ns1:op xmlns:ns1="urn:e"> </ns1:op>`),
		"text-after-child":      wrap(`<ns1:op xmlns:ns1="urn:e"><ns1:a>x</ns1:a>tail</ns1:op>`),
		"raw-gt-in-text":        wrap(`<ns1:op xmlns:ns1="urn:e">a>b</ns1:op>`),
		"apos-entity":           wrap(`<ns1:op xmlns:ns1="urn:e">a&apos;b</ns1:op>`),
		"numeric-entity":        wrap(`<ns1:op xmlns:ns1="urn:e">a&#65;b</ns1:op>`),
		"cdata":                 wrap(`<ns1:op xmlns:ns1="urn:e"><![CDATA[x]]></ns1:op>`),
		"comment":               wrap(`<ns1:op xmlns:ns1="urn:e"><!--c-->x</ns1:op>`),
		"pi":                    wrap(`<ns1:op xmlns:ns1="urn:e"><?p?>x</ns1:op>`),
		"default-xmlns":         wrap(`<op xmlns="urn:e">x</op>`),
		"single-quoted-attr":    wrap(`<ns1:op xmlns:ns1='urn:e'>x</ns1:op>`),
		"duplicate-attr":        wrap(`<e:op a="1" a="2" xmlns:e="urn:e">x</ns1:op>`),
		"attr-after-decl":       wrap(`<ns1:op xmlns:ns1="urn:e" a="1">x</ns1:op>`),
		"unused-decl":           wrap(`<ns1:op xmlns:ns1="urn:e" xmlns:f="urn:f">x</ns1:op>`),
		"redeclared-scope":      wrap(`<soapenv:op xmlns:soapenv="` + soap.NS11 + `">x</soapenv:op>`),
		"wrong-gen-prefix":      wrap(`<a:op xmlns:a="urn:e">x</a:op>`),
		"undeclared-prefix":     wrap(`<e:op>x</ns1:op>`),
		"raw-tab-in-attr":       wrap(`<e:op a="x` + "\t" + `y" xmlns:e="urn:e">x</ns1:op>`),
		"mismatched-close":      pre + envOpen + `<soapenv:Body><ns1:op xmlns:ns1="urn:e">x</e:OP></soapenv:Body>` + envClose,
		"foreign-header":        hdr(`<f:Custom xmlns:f="urn:f">x</f:Custom>`),
		"unknown-wsa-header":    hdr(`<wsa:Unknown xmlns:wsa="` + NS + `">x</wsa:Unknown>`),
		"header-attr":           hdr(`<wsa:To xmlns:wsa="` + NS + `" soapenv:mustUnderstand="1">wsd://x</wsa:To>`),
		"empty-header-value":    hdr(`<wsa:To xmlns:wsa="` + NS + `"></wsa:To>`),
		"space-in-header-value": hdr(`<wsa:To xmlns:wsa="` + NS + `">a b</wsa:To>`),
		"escape-in-header":      hdr(`<wsa:To xmlns:wsa="` + NS + `">a&amp;b</wsa:To>`),
		"self-closed-header":    hdr(`<wsa:To xmlns:wsa="` + NS + `"/>`),
		"epr-with-properties": hdr(`<wsa:ReplyTo xmlns:wsa="` + NS + `"><wsa:Address>urn:a</wsa:Address>` +
			`<wsa:ReferenceProperties><k>v</k></wsa:ReferenceProperties></wsa:ReplyTo>`),
		"trailing-junk":   wrap(`<ns1:op xmlns:ns1="urn:e">x</ns1:op>`) + "x",
		"truncated":       wrap(`<ns1:op xmlns:ns1="urn:e">x</ns1:op>`)[:60],
		"carriage-return": wrap("<ns1:op xmlns:ns1=\"urn:e\">a\rb</ns1:op>"),
		"non-ascii-text":  wrap(`<ns1:op xmlns:ns1="urn:e">héllo</ns1:op>`),
	}
	for name, raw := range cases {
		var sk Skim
		if SkimEnvelope([]byte(raw), &sk) {
			t.Errorf("%s: skim accepted %q", name, raw)
		}
	}
}

// TestSkimDepthCap: nesting beyond the fixed frame stack declines
// rather than mis-scanning.
func TestSkimDepthCap(t *testing.T) {
	var b strings.Builder
	b.WriteString(xmlsoap.Prolog)
	b.WriteString(`<soapenv:Envelope xmlns:soapenv="` + soap.NS11 + `">`)
	b.WriteString(`<soapenv:Body><ns1:op xmlns:ns1="urn:e">`)
	for i := 0; i < skimMaxDepth+1; i++ {
		b.WriteString(`<e:n` + strconv.Itoa(i) + `>`)
	}
	b.WriteString("x")
	for i := skimMaxDepth; i >= 0; i-- {
		b.WriteString(`</e:n` + strconv.Itoa(i) + `>`)
	}
	b.WriteString(`</ns1:op></soapenv:Body></soapenv:Envelope>`)
	var sk Skim
	if SkimEnvelope([]byte(b.String()), &sk) {
		t.Fatal("skim accepted nesting beyond the frame cap")
	}
}

func skimStandardEnvelope(t testing.TB) []byte {
	return skimEnvelopeWithBody(t, xmlsoap.New("urn:wsd:echo", "echo").Add(xmlsoap.NewText("", "message", "steady")))
}

// skimEnvelopeWithBody is the standard envelope's addressing around body.
func skimEnvelopeWithBody(t testing.TB, body *xmlsoap.Element) []byte {
	env := soap.New(soap.V11).
		AddHeader(xmlsoap.NewText(NS, "To", "wsd://echo-rpc")).
		AddHeader(xmlsoap.NewText(NS, "Action", "urn:wsd:echo/echo")).
		AddHeader(xmlsoap.NewText(NS, "MessageID", "urn:uuid:6ba7b810-9dad-11d1-80b4-00c04fd430c8")).
		AddHeader((&EPR{Address: Anonymous}).Element("ReplyTo")).
		SetBody(body)
	raw, err := MarshalEnvelope(env)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// skimBenchEnvelope is one input of the skim-vs-parse benchmarks.
type skimBenchEnvelope struct {
	name string
	raw  []byte
}

// skimBenchEnvelopes are the standard dispatcher envelope and one whose
// body is 64 KiB of alphanumeric text — the top of the msg-reply
// workload's log-uniform body-size range, where the byte-at-a-time scan
// competes with the parser's bulk text handling.
func skimBenchEnvelopes(t testing.TB) []skimBenchEnvelope {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	text := strings.Repeat(alphabet, 64<<10/len(alphabet)+1)[:64<<10]
	return []skimBenchEnvelope{
		{"standard", skimStandardEnvelope(t)},
		{"body=64KiB", skimEnvelopeWithBody(t, xmlsoap.NewText("urn:wsd:echo", "echo", text))},
	}
}

// TestSkimZeroAlloc is the tentpole's core gate: scanning plus the
// splice rewrite of the standard dispatcher envelope must not allocate.
func TestSkimZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector")
	}
	raw := skimStandardEnvelope(t)
	var sk Skim
	var fields [len(fieldLocals)]string
	buf := make([]byte, 0, 4096)
	render := func() {
		if !SkimEnvelope(raw, &sk) {
			t.Fatal("skim declined the standard envelope")
		}
		sk.Fields(&fields)
		fields[0] = "http://backend:9000/echo"
		fields[5] = "http://wsd:9100/msg"
		out, err := AppendSkimRewritten(buf[:0], sk.Version, sk.Body, &fields)
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	}
	render() // warm the skeleton cache
	if allocs := testing.AllocsPerRun(100, render); allocs != 0 {
		t.Fatalf("skim+rewrite allocated %.1f per op, want 0", allocs)
	}
}

// BenchmarkSkim measures the scanner alone on the standard envelope.
func BenchmarkSkim(b *testing.B) {
	for _, e := range skimBenchEnvelopes(b) {
		b.Run(e.name, func(b *testing.B) {
			var sk Skim
			b.SetBytes(int64(len(e.raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !SkimEnvelope(e.raw, &sk) {
					b.Fatal("declined")
				}
			}
		})
	}
}

// BenchmarkSkimRewrite is the full fast-path leg: skim, rewrite To and
// ReplyTo, splice through the skeleton cache.
func BenchmarkSkimRewrite(b *testing.B) {
	raw := skimStandardEnvelope(b)
	var sk Skim
	var fields [len(fieldLocals)]string
	buf := make([]byte, 0, 4096)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !SkimEnvelope(raw, &sk) {
			b.Fatal("declined")
		}
		sk.Fields(&fields)
		fields[0] = "http://backend:9000/echo"
		fields[5] = "http://wsd:9100/msg"
		out, err := AppendSkimRewritten(buf[:0], sk.Version, sk.Body, &fields)
		if err != nil {
			b.Fatal(err)
		}
		buf = out[:0]
	}
}

// BenchmarkParseRewrite is the same leg through the tree path, for the
// skim-vs-parse ratio the bench snapshot records.
func BenchmarkParseRewrite(b *testing.B) {
	for _, e := range skimBenchEnvelopes(b) {
		b.Run(e.name, func(b *testing.B) {
			buf := make([]byte, 0, 4096)
			b.SetBytes(int64(len(e.raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				env, err := soap.Parse(e.raw)
				if err != nil {
					b.Fatal(err)
				}
				h, err := FromEnvelope(env)
				if err != nil {
					b.Fatal(err)
				}
				rewritten := *h
				rewritten.To = "http://backend:9000/echo"
				rewritten.ReplyTo = &EPR{Address: "http://wsd:9100/msg"}
				out, err := AppendRewritten(buf[:0], env, &rewritten)
				if err != nil {
					b.Fatal(err)
				}
				buf = out[:0]
			}
		})
	}
}
