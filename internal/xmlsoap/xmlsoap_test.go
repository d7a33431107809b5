package xmlsoap

import (
	"strings"
	"testing"
	"testing/quick"
)

const soapNS = "http://schemas.xmlsoap.org/soap/envelope/"

func TestBuildAndMarshal(t *testing.T) {
	env := New(soapNS, "Envelope").Add(
		New(soapNS, "Body").Add(
			NewText("urn:test", "echo", "hello"),
		),
	)
	out, err := Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	for _, want := range []string{
		"<soapenv:Envelope", `xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"`,
		"<soapenv:Body>", "echo", ">hello<",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output %q missing %q", s, want)
		}
	}
}

func TestParseResolvesNamespaces(t *testing.T) {
	raw := `<e:Envelope xmlns:e="` + soapNS + `"><e:Body><m:op xmlns:m="urn:x">v</m:op></e:Body></e:Envelope>`
	root, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if root.Name.Space != soapNS || root.Name.Local != "Envelope" {
		t.Fatalf("root = %v", root.Name)
	}
	op := root.Path(soapNS, "Body")
	if op == nil {
		t.Fatal("Body missing")
	}
	m := op.Child("urn:x", "op")
	if m == nil || m.Text != "v" {
		t.Fatalf("op = %+v", m)
	}
}

func TestParseDefaultNamespace(t *testing.T) {
	raw := `<Envelope xmlns="` + soapNS + `"><Body/></Envelope>`
	root, err := Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if root.Name.Space != soapNS {
		t.Fatalf("default ns not resolved: %v", root.Name)
	}
	if root.Child(soapNS, "Body") == nil {
		t.Fatal("Body not in default ns")
	}
}

func TestRoundTripPreservesStructure(t *testing.T) {
	orig := New("urn:a", "root").
		SetAttr("", "id", "42").
		SetAttr("urn:b", "flag", "yes").
		Add(
			NewText("urn:a", "leaf", "text & <escapes>"),
			New("urn:c", "empty"),
			New("urn:a", "nested").Add(NewText("urn:a", "deep", "x")),
		)
	out, err := Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse of %q: %v", out, err)
	}
	if !back.Equal(orig) {
		t.Fatalf("round trip changed tree:\norig: %s\nback: %s", orig, back)
	}
}

func TestMarshalIsDeterministic(t *testing.T) {
	e := New(soapNS, "Envelope").Add(New("urn:q", "a"), New("urn:r", "b"))
	first, _ := Marshal(e)
	for i := 0; i < 5; i++ {
		again, _ := Marshal(e)
		if string(again) != string(first) {
			t.Fatalf("marshal not deterministic:\n%s\n%s", first, again)
		}
	}
}

func TestAttrEscaping(t *testing.T) {
	e := New("", "x").SetAttr("", "v", `a"b<c>&d`)
	out, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := back.Attr("", "v"); got != `a"b<c>&d` {
		t.Fatalf("attr round trip = %q", got)
	}
}

// TestCarriageReturnRoundTrip: a raw \r would come back as \n (the
// parser normalizes line ends), so both escapers write it as &#13;.
func TestCarriageReturnRoundTrip(t *testing.T) {
	e := NewText("", "x", "a\r\nb\r").SetAttr("", "v", "c\rd")
	out, err := Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if want := "<x v=\"c&#13;d\">a&#13;\nb&#13;</x>"; string(out) != want {
		t.Fatalf("Marshal = %q, want %q", out, want)
	}
	back, err := Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := back.Attr("", "v"); back.Text != "a\r\nb\r" || got != "c\rd" {
		t.Fatalf("round trip: text %q, attr %q", back.Text, got)
	}
}

func TestChildHelpers(t *testing.T) {
	e := New("urn:x", "p").Add(
		NewText("urn:x", "c", "1"),
		NewText("urn:x", "c", "2"),
		NewText("urn:y", "c", "3"),
	)
	if got := len(e.ChildrenNamed("urn:x", "c")); got != 2 {
		t.Fatalf("ChildrenNamed = %d", got)
	}
	if e.ChildText("urn:y", "c") != "3" {
		t.Fatalf("ChildText = %q", e.ChildText("urn:y", "c"))
	}
	if n := e.RemoveChildren("urn:x", "c"); n != 2 {
		t.Fatalf("RemoveChildren = %d", n)
	}
	if len(e.Children) != 1 {
		t.Fatalf("children after removal = %d", len(e.Children))
	}
}

func TestSetAttrReplaces(t *testing.T) {
	e := New("", "x").SetAttr("", "k", "1").SetAttr("", "k", "2")
	if len(e.Attrs) != 1 {
		t.Fatalf("attrs = %v", e.Attrs)
	}
	if v, _ := e.Attr("", "k"); v != "2" {
		t.Fatalf("attr = %q", v)
	}
}

func TestPath(t *testing.T) {
	e := New("n", "a").Add(New("n", "b").Add(NewText("n", "c", "deep")))
	if got := e.Path("n", "b", "c"); got == nil || got.Text != "deep" {
		t.Fatalf("Path = %+v", got)
	}
	if e.Path("n", "b", "zzz") != nil {
		t.Fatal("Path to missing node returned non-nil")
	}
}

func TestClone(t *testing.T) {
	orig := New("n", "a").SetAttr("", "k", "v").Add(NewText("n", "b", "t"))
	cp := orig.Clone()
	if !cp.Equal(orig) {
		t.Fatal("clone not equal")
	}
	cp.Children[0].Text = "mutated"
	if orig.Children[0].Text != "t" {
		t.Fatal("clone aliased original")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"<a><b></a></b>",
		"<a>",
		"<a/><b/>",
		"plain text",
	}
	for _, raw := range bad {
		if _, err := Parse([]byte(raw)); err == nil {
			t.Errorf("Parse(%q) succeeded", raw)
		}
	}
}

func TestMarshalNilAndEmptyName(t *testing.T) {
	if _, err := Marshal(nil); err == nil {
		t.Fatal("Marshal(nil) succeeded")
	}
	if _, err := Marshal(&Element{}); err == nil {
		t.Fatal("Marshal of empty-name element succeeded")
	}
}

func TestMarshalDocHasProlog(t *testing.T) {
	out, err := MarshalDoc(New("", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(out), `<?xml version="1.0"`) {
		t.Fatalf("doc = %q", out)
	}
}

func TestUnknownNamespaceGetsGeneratedPrefix(t *testing.T) {
	out, err := Marshal(New("urn:unknown:ns", "x"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `xmlns:ns1="urn:unknown:ns"`) {
		t.Fatalf("output = %q", out)
	}
}

func TestNestedSameNamespaceDeclaredOnce(t *testing.T) {
	e := New("urn:a", "outer").Add(New("urn:a", "inner"))
	out, _ := Marshal(e)
	if strings.Count(string(out), "xmlns:") != 1 {
		t.Fatalf("expected single declaration: %q", out)
	}
}

// Property: trees built from arbitrary safe text content round-trip
// through Marshal/Parse unchanged.
func TestQuickTextRoundTrip(t *testing.T) {
	sanitize := func(s string) string {
		// Strip control characters XML 1.0 cannot carry, and trim
		// (the parser drops whitespace-only content and the tree
		// stores significant text only).
		var b strings.Builder
		for _, r := range s {
			if r == 0x9 || r == 0xA || r == 0xD || (r >= 0x20 && r != 0xFFFE && r != 0xFFFF) {
				b.WriteRune(r)
			}
		}
		return strings.TrimSpace(b.String())
	}
	f := func(text, attr string) bool {
		text = sanitize(text)
		attr = sanitize(attr)
		orig := New("urn:q", "root").SetAttr("", "a", attr).SetText(text)
		out, err := Marshal(orig)
		if err != nil {
			return false
		}
		back, err := Parse(out)
		if err != nil {
			return false
		}
		gotAttr, _ := back.Attr("", "a")
		return back.Text == text && gotAttr == attr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
