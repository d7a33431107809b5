package xmlsoap_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/xmlsoap"
	"repro/internal/xmlsoap/refcodec"
	"repro/internal/xmlsoap/xmltest"
)

// goldenCorpus returns element trees covering every structural feature
// the serializer has: nesting, attributes, preferred and generated
// prefixes, scope shadowing, re-declaration of out-of-scope namespaces,
// empty elements, text before children, and escaping edge cases in both
// text and attribute positions.
func goldenCorpus() map[string]*xmlsoap.Element {
	const (
		env  = "http://schemas.xmlsoap.org/soap/envelope/"
		env2 = "http://www.w3.org/2003/05/soap-envelope"
		wsa  = "http://schemas.xmlsoap.org/ws/2004/08/addressing"
		foo  = "urn:example:foo"
		bar  = "urn:example:bar"
	)
	corpus := map[string]*xmlsoap.Element{
		"empty-no-ns":   xmlsoap.New("", "x"),
		"empty-with-ns": xmlsoap.New(foo, "x"),
		"text-only":     xmlsoap.NewText(foo, "x", "hello"),
		"preferred-prefixes": xmlsoap.New(env, "Envelope").Add(
			xmlsoap.New(env, "Header").Add(xmlsoap.NewText(wsa, "To", "http://a/b")),
			xmlsoap.New(env, "Body").Add(xmlsoap.NewText(foo, "op", "v")),
		),
		"generated-prefixes": xmlsoap.New(foo, "a").Add(
			xmlsoap.New(bar, "b").Add(xmlsoap.New("urn:example:baz", "c")),
		),
		"redeclare-out-of-scope": xmlsoap.New(env, "Envelope").Add(
			xmlsoap.New(env, "Header").Add(
				xmlsoap.NewText(wsa, "To", "x"),
				xmlsoap.NewText(wsa, "Action", "y"),
			),
			xmlsoap.New(env, "Body").Add(xmlsoap.New(wsa, "EndpointReference")),
		),
		"attrs-and-ns-attrs": xmlsoap.New(foo, "e").
			SetAttr("", "plain", "v1").
			SetAttr(bar, "qualified", "v2").
			SetAttr(env, "mustUnderstand", "1"),
		"text-then-children": func() *xmlsoap.Element {
			e := xmlsoap.NewText(foo, "e", "lead text")
			return e.Add(xmlsoap.New(foo, "child"))
		}(),
		"escape-text":     xmlsoap.NewText("", "e", `a&b<c>d"e'f`),
		"escape-attr":     xmlsoap.New("", "e").SetAttr("", "a", "x&y<z>\"q\"\nnl\ttab"),
		"carriage-return": xmlsoap.NewText("", "e", "a\r\nb\rc").SetAttr("", "cr", "p\rq\r\n"),
		"control-chars": xmlsoap.NewText("", "e", "a\x01b\x02c").
			SetAttr("", "ctl", "p\x1fq"),
		"unicode":         xmlsoap.NewText("", "e", "héllo wörld — 日本語").SetAttr("", "u", "ünïcode"),
		"invalid-utf8":    xmlsoap.NewText("", "e", "ok\xffbad\xfe"),
		"soap12-envelope": xmlsoap.New(env2, "Envelope").Add(xmlsoap.New(env2, "Body").Add(xmlsoap.NewText(foo, "op", "v"))),
		"deep-nesting": func() *xmlsoap.Element {
			root := xmlsoap.New(foo, "l0")
			cur := root
			for i := 1; i < 12; i++ {
				next := xmlsoap.NewText(bar, fmt.Sprintf("l%d", i), fmt.Sprintf("t%d", i))
				cur.Add(next)
				cur = next
			}
			return root
		}(),
		"shadowing-preferred-taken": func() *xmlsoap.Element {
			// A root that claims prefix "wsa" for a foreign URI forces
			// the real WS-Addressing namespace onto a generated prefix.
			root := xmlsoap.New("urn:not-wsa", "r")
			root.Name = xmlsoap.Name{Space: "urn:not-wsa", Local: "r"}
			return root.Add(xmlsoap.New(wsa, "To"))
		}(),
	}
	// Force the "preferred prefix already used" path: PreferredPrefixes
	// has wsa->wsa; occupy "wsa" first via a URI that generates it...
	// (not reachable through generation, so instead exercise many
	// generated prefixes in one document).
	wide := xmlsoap.New("", "wide")
	for i := 0; i < 8; i++ {
		wide.Add(xmlsoap.New(fmt.Sprintf("urn:gen:%d", i), "c"))
	}
	corpus["many-generated"] = wide
	return corpus
}

// TestGoldenEquivalence proves the streaming codec emits bytes identical
// to the frozen seed codec for every corpus tree, via Marshal,
// MarshalDoc, AppendTo, and WriteTo.
func TestGoldenEquivalence(t *testing.T) {
	for name, tree := range goldenCorpus() {
		t.Run(name, func(t *testing.T) {
			want, wantErr := refcodec.Marshal(tree)
			got, gotErr := xmlsoap.Marshal(tree)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: seed=%v new=%v", wantErr, gotErr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("Marshal mismatch:\nseed: %q\nnew:  %q", want, got)
			}

			wantDoc, _ := refcodec.MarshalDoc(tree)
			gotDoc, err := xmlsoap.MarshalDoc(tree)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotDoc, wantDoc) {
				t.Fatalf("MarshalDoc mismatch:\nseed: %q\nnew:  %q", wantDoc, gotDoc)
			}

			prefix := []byte("PREFIX")
			appended, err := tree.AppendTo(append([]byte(nil), prefix...))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(appended, append(prefix, want...)) {
				t.Fatalf("AppendTo mismatch:\nseed: %q\nnew:  %q", want, appended)
			}

			var sink bytes.Buffer
			if _, err := tree.WriteTo(&sink); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sink.Bytes(), want) {
				t.Fatalf("WriteTo mismatch:\nseed: %q\nnew:  %q", want, sink.Bytes())
			}
		})
	}
}

// TestGoldenRoundTrip proves corpus documents (valid-XML subset) survive
// marshal → parse → marshal unchanged under the new codec.
func TestGoldenRoundTrip(t *testing.T) {
	for name, tree := range goldenCorpus() {
		switch name {
		case "control-chars", "invalid-utf8":
			continue // not parseable XML; serializer-only cases
		}
		t.Run(name, func(t *testing.T) {
			first, err := xmlsoap.Marshal(tree)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := xmlsoap.Parse(first)
			if err != nil {
				t.Fatal(err)
			}
			second, err := xmlsoap.Marshal(parsed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("round-trip drift:\n1st: %q\n2nd: %q", first, second)
			}
		})
	}
}

// TestGoldenErrors proves the new codec rejects exactly what the seed
// codec rejected.
func TestGoldenErrors(t *testing.T) {
	bad := map[string]*xmlsoap.Element{
		"nil-child":  xmlsoap.New("", "x").Add(nil),
		"empty-name": xmlsoap.New("", "x").Add(&xmlsoap.Element{}),
	}
	for name, tree := range bad {
		t.Run(name, func(t *testing.T) {
			if _, err := refcodec.Marshal(tree); err == nil {
				t.Fatal("seed codec unexpectedly accepted input")
			}
			if _, err := xmlsoap.Marshal(tree); err == nil {
				t.Fatal("new codec unexpectedly accepted input")
			}
		})
	}
	if _, err := xmlsoap.Marshal(nil); err == nil {
		t.Fatal("new codec accepted nil root")
	}
}

// TestMarshalDocSplit checks the skeleton-compile primitive: the split
// pieces plus a spliced subtree must reassemble to exactly the bytes of
// a whole-document marshal.
func TestMarshalDocSplit(t *testing.T) {
	const (
		env = "http://schemas.xmlsoap.org/soap/envelope/"
		wsa = "http://schemas.xmlsoap.org/ws/2004/08/addressing"
	)
	body := xmlsoap.New(env, "Body").Add(xmlsoap.New("", "placeholder"))
	root := xmlsoap.New(env, "Envelope").Add(
		xmlsoap.New(env, "Header").Add(xmlsoap.NewText(wsa, "To", "http://a/b")),
		body,
	)
	before, st, after, err := xmlsoap.MarshalDocSplit(root, body)
	if err != nil {
		t.Fatal(err)
	}

	// Splice a payload that reuses the wsa namespace (must reuse the
	// assigned prefix) and a foreign one (must generate ns1, exactly as
	// in-place serialization would).
	payload := xmlsoap.New("urn:example:foo", "op").Add(xmlsoap.New(wsa, "EndpointReference"))
	spliced, err := st.AppendElements(before, payload)
	if err != nil {
		t.Fatal(err)
	}
	spliced = append(spliced, after...)

	whole := xmlsoap.New(env, "Envelope").Add(
		xmlsoap.New(env, "Header").Add(xmlsoap.NewText(wsa, "To", "http://a/b")),
		xmlsoap.New(env, "Body").Add(payload),
	)
	want, err := refcodec.MarshalDoc(whole)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(spliced, want) {
		t.Fatalf("split+splice drift:\nwant: %q\ngot:  %q", want, spliced)
	}

	// An empty target self-closes and must be refused.
	empty := xmlsoap.New(env, "Body")
	r2 := xmlsoap.New(env, "Envelope").Add(empty)
	if _, _, _, err := xmlsoap.MarshalDocSplit(r2, empty); err == nil {
		t.Fatal("MarshalDocSplit accepted a content-free target")
	}
}

// escapeSweepInputs are the strings the escapers are compared on beyond
// the golden corpus: every word-boundary sweep run, and mixed ASCII with
// valid and invalid UTF-8 at and around word boundaries (a non-ASCII
// rune between long plain runs, truncated and overlong sequences,
// encoded surrogates, a literal U+FFFD, runes next to escapes, and
// invalid bytes inside and after a run of valid runes).
func escapeSweepInputs() []string {
	var in []string
	xmltest.WordBoundaryRuns(func(run []byte) { in = append(in, string(run)) })
	long := strings.Repeat("plain ascii run ", 8)
	for _, s := range []string{
		"é", "日本語", "😀", "\uFFFD", "\xff", "\xc3", "\xe6\x97", "\xf0\x9f\x98",
		"\xc0\xaf", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\x80\x80\x80",
		"é&<>\"\n\t", "&é<日>本\"語", "a\xffb&c\xfe<d", "\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7",
		"1234567é", "12345678é", "123456789é", "1234567\xff", "12345678\xff",
		"héllo wörld — 日本語", "ok\xffbad\xfe", "日本\xff語", "éé\xc3", "\xe6\x97é&", "é\r\n",
	} {
		in = append(in, s, long+s, s+long, long+s+long, long+s+"&"+long+s)
	}
	return in
}

// TestEscapeSweepMatchesRefcodec holds the escapers byte-identical to the
// frozen seed codec, which escapes rune by rune (U+FFFD for invalid
// UTF-8), on every escape sweep input in text and in an attribute.
func TestEscapeSweepMatchesRefcodec(t *testing.T) {
	for _, s := range escapeSweepInputs() {
		tree := xmlsoap.NewText("", "e", s).SetAttr("", "a", s)
		want, err := refcodec.Marshal(tree)
		if err != nil {
			t.Fatal(err)
		}
		got, err := xmlsoap.Marshal(tree)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("escape mismatch on %q:\nseed: %q\nnew:  %q", s, want, got)
		}
	}
}
