package soap

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xmlsoap"
)

func TestEnvelopeRoundTrip11(t *testing.T) {
	env := New(V11).
		AddHeader(xmlsoap.NewText("urn:h", "Trace", "abc")).
		SetBody(xmlsoap.NewText("urn:svc", "echo", "hello"))
	raw, err := env.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != V11 {
		t.Fatalf("version = %v", back.Version)
	}
	if h := back.HeaderBlock("urn:h", "Trace"); h == nil || h.Text != "abc" {
		t.Fatalf("header = %+v", h)
	}
	if b := back.BodyElement(); b == nil || b.Text != "hello" {
		t.Fatalf("body = %+v", b)
	}
}

func TestEnvelopeRoundTrip12(t *testing.T) {
	env := New(V12).SetBody(xmlsoap.NewText("urn:svc", "op", "x"))
	raw, _ := env.Marshal()
	if !strings.Contains(string(raw), NS12) {
		t.Fatalf("1.2 envelope missing namespace: %s", raw)
	}
	back, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != V12 {
		t.Fatalf("version = %v", back.Version)
	}
}

func TestParseRejectsNonSOAP(t *testing.T) {
	if _, err := Parse([]byte(`<html xmlns="urn:web"><body/></html>`)); !errors.Is(err, ErrNotSOAP) {
		t.Fatalf("err = %v, want ErrNotSOAP", err)
	}
}

func TestParseRejectsMissingBody(t *testing.T) {
	raw := `<e:Envelope xmlns:e="` + NS11 + `"><e:Header/></e:Envelope>`
	if _, err := Parse([]byte(raw)); !errors.Is(err, ErrMissingBody) {
		t.Fatalf("err = %v, want ErrMissingBody", err)
	}
}

func TestContentTypes(t *testing.T) {
	if got := V11.ContentType(); !strings.HasPrefix(got, "text/xml") {
		t.Fatalf("V11 content type = %q", got)
	}
	if got := V12.ContentType(); !strings.HasPrefix(got, "application/soap+xml") {
		t.Fatalf("V12 content type = %q", got)
	}
}

func TestRemoveHeaderBlocks(t *testing.T) {
	env := New(V11).AddHeader(
		xmlsoap.NewText("urn:a", "H", "1"),
		xmlsoap.NewText("urn:a", "H", "2"),
		xmlsoap.NewText("urn:b", "K", "3"),
	)
	if n := env.RemoveHeaderBlocks("urn:a", "H"); n != 2 {
		t.Fatalf("removed = %d", n)
	}
	if len(env.Header) != 1 || env.Header[0].Name.Local != "K" {
		t.Fatalf("header = %+v", env.Header)
	}
}

func TestFaultRoundTrip11(t *testing.T) {
	f := &Fault{Code: FaultServer, Reason: "boom", Detail: "stack trace"}
	raw, err := f.Envelope(V11).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	env, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := AsFault(env)
	if !ok {
		t.Fatalf("fault not detected in %s", raw)
	}
	if got.Code != FaultServer || got.Reason != "boom" || got.Detail != "stack trace" {
		t.Fatalf("fault = %+v", got)
	}
}

func TestFaultRoundTrip12(t *testing.T) {
	f := &Fault{Code: FaultClient, Reason: "bad input"}
	raw, _ := f.Envelope(V12).Marshal()
	env, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := AsFault(env)
	if !ok {
		t.Fatal("fault not detected")
	}
	// 1.2 Sender maps back to 1.1-style Client.
	if got.Code != FaultClient || got.Reason != "bad input" {
		t.Fatalf("fault = %+v", got)
	}
}

func TestAsFaultOnNormalBody(t *testing.T) {
	env := New(V11).SetBody(xmlsoap.New("urn:x", "op"))
	if _, ok := AsFault(env); ok {
		t.Fatal("normal body detected as fault")
	}
}

func TestFaultIsError(t *testing.T) {
	var err error = &Fault{Code: FaultClient, Reason: "r"}
	if !strings.Contains(err.Error(), "Client") {
		t.Fatalf("Error() = %q", err.Error())
	}
}

func TestRPCRequestRoundTrip(t *testing.T) {
	raw, _ := AppendRPC(nil, V11, "urn:echo", "echo",
		Param{Name: "message", Value: "ping"},
		Param{Name: "seq", Value: "42"})
	back, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	call, err := ParseRPC(back)
	if err != nil {
		t.Fatal(err)
	}
	if call.Operation != "echo" || call.ServiceNS != "urn:echo" {
		t.Fatalf("call = %+v", call)
	}
	if v, ok := call.Param("message"); !ok || v != "ping" {
		t.Fatalf("message = %q, %v", v, ok)
	}
	if v, _ := call.Param("seq"); v != "42" {
		t.Fatalf("seq = %q", v)
	}
	if _, ok := call.Param("missing"); ok {
		t.Fatal("missing param reported present")
	}
}

func TestRPCResponseRoundTrip(t *testing.T) {
	raw, _ := AppendRPCResponse(nil, V11, "urn:echo", "echo", Param{Name: "return", Value: "pong"})
	back, _ := Parse(raw)
	results, err := ParseRPCResponse(back, "echo")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Value != "pong" {
		t.Fatalf("results = %+v", results)
	}
}

func TestRPCResponseWrongOperation(t *testing.T) {
	env := New(V11).SetBody(xmlsoap.New("urn:echo", "echoResponse"))
	if _, err := ParseRPCResponse(env, "other"); err == nil {
		t.Fatal("mismatched response accepted")
	}
}

func TestRPCResponseFaultSurfacesAsError(t *testing.T) {
	f := &Fault{Code: FaultServer, Reason: "died"}
	env := f.Envelope(V11)
	_, err := ParseRPCResponse(env, "echo")
	var fault *Fault
	if !errors.As(err, &fault) || fault.Reason != "died" {
		t.Fatalf("err = %v, want wrapped fault", err)
	}
	if _, err := ParseRPC(env); err == nil {
		t.Fatal("ParseRPC accepted fault body")
	}
}

func TestMustUnderstandViolation(t *testing.T) {
	critical := xmlsoap.New("urn:sec", "Security")
	critical.SetAttr(NS11, "mustUnderstand", "1")
	benign := xmlsoap.New("urn:dbg", "Trace")
	env := New(V11).AddHeader(critical, benign).SetBody(xmlsoap.New("urn:x", "op"))

	if v := env.MustUnderstandViolation("urn:other"); v == nil || v.Name.Space != "urn:sec" {
		t.Fatalf("violation = %+v", v)
	}
	if v := env.MustUnderstandViolation("urn:sec"); v != nil {
		t.Fatalf("understood header still violates: %+v", v)
	}
}

func TestCloneIsDeep(t *testing.T) {
	env := New(V11).SetBody(xmlsoap.NewText("urn:x", "op", "orig"))
	cp := env.Clone()
	cp.Body[0].Text = "mutated"
	if env.Body[0].Text != "orig" {
		t.Fatal("clone aliased body")
	}
}

// Property: RPC parameters of arbitrary XML-safe content survive the full
// envelope wire round trip in order.
func TestQuickRPCParamRoundTrip(t *testing.T) {
	sanitize := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			if r >= 0x20 && r != 0xFFFE && r != 0xFFFF {
				b.WriteRune(r)
			}
		}
		return strings.TrimSpace(b.String())
	}
	f := func(vals []string) bool {
		params := make([]Param, 0, len(vals))
		for i, v := range vals {
			params = append(params, Param{Name: "p" + string(rune('a'+i%26)), Value: sanitize(v)})
		}
		raw, err := AppendRPC(nil, V11, "urn:q", "op", params...)
		if err != nil {
			return false
		}
		back, err := Parse(raw)
		if err != nil {
			return false
		}
		call, err := ParseRPC(back)
		if err != nil {
			return false
		}
		if len(call.Params) != len(params) {
			return false
		}
		for i := range params {
			if call.Params[i] != params[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeCanonicalReadsAppendRPC keeps the byte path honest: every
// envelope AppendRPC writes with a generated wrapper prefix is read
// without the Parse fallback, whatever its values hold.
func TestDecodeCanonicalReadsAppendRPC(t *testing.T) {
	values := []string{"", "plain", "a&b<c>d\"e'f", "\r\n\t x", "  ", "héllo ✓", "]]"}
	for _, v := range []Version{V11, V12} {
		for _, val := range values {
			raw, _ := AppendRPC(nil, v, "urn:wsd:echo", "echoMessage",
				Param{Name: "message", Value: val}, Param{Name: "seq", Value: "1"})
			if _, _, _, _, ok := decodeCanonical(raw, nil); !ok {
				t.Errorf("byte path declined %q", raw)
			}
			raw, _ = AppendRPCResponse(nil, v, "urn:wsd:echo", "echoMessage")
			if _, _, _, _, ok := decodeCanonical(raw, nil); !ok {
				t.Errorf("byte path declined %q", raw)
			}
		}
	}
}
