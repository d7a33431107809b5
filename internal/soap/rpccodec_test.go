package soap_test

import (
	"bytes"
	"errors"
	"flag"
	"reflect"
	"strings"
	"testing"

	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// rpcTree is the element-tree oracle the codec replaced: the wrapper
// element named op in ns, one unqualified text child per parameter.
func rpcTree(v soap.Version, ns, op string, params []soap.Param) *soap.Envelope {
	wrapper := xmlsoap.New(ns, op)
	for _, p := range params {
		wrapper.Add(xmlsoap.NewText("", p.Name, p.Value))
	}
	return soap.New(v).SetBody(wrapper)
}

// rpcCorpus holds parameter lists covering every byte the text escaper
// rewrites, empty and whitespace-only values, non-ASCII text, invalid
// UTF-8 and the empty list.
var rpcCorpus = [][]soap.Param{
	nil,
	{{Name: "message", Value: "m-000042-abcdefgh"}},
	{{Name: "message", Value: `a&b<c>d"e'f`}, {Name: "seq", Value: "7"}},
	{{Name: "cr", Value: "line\r\nnext\rlast"}, {Name: "tab", Value: "a\tb\nc"}},
	{{Name: "empty", Value: ""}, {Name: "x", Value: "y"}, {Name: "also-empty", Value: ""}},
	{{Name: "ws", Value: "   "}, {Name: "nl", Value: "\n\t "}, {Name: "cr", Value: "\r"}},
	{{Name: "utf8", Value: "héllo wörld — ✓ 𝄞  "}, {Name: "bad", Value: "a\xffb\xc3"}},
	{{Name: "ctl", Value: "a\x01b\x7fc"}},
	{{Name: "msg1", Value: `<?xml version="1.0" encoding="UTF-8"?>` + "\n" +
		`<soapenv:Envelope xmlns:soapenv="http://schemas.xmlsoap.org/soap/envelope/"><soapenv:Body><ns1:echo xmlns:ns1="urn:wsd:echo">hi &amp; bye</ns1:echo></soapenv:Body></soapenv:Envelope>`}},
	{{Name: "_a.b-c9", Value: "]]> ]] >"}},
}

// rpcNamespaces covers every prefix rule of the serializer at the body
// splice point: a generated prefix, none, the envelope's own, the other
// version's, other preferred prefixes, and a URI the attribute escaper
// rewrites.
var rpcNamespaces = []string{
	"urn:wsd:echo", "", soap.NS11, soap.NS12, wsa.NS,
	"http://schemas.xmlsoap.org/wsdl/", `urn:a&b"c<d>e` + "\t\n",
}

func TestAppendRPCMatchesTree(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, ns := range rpcNamespaces {
			for _, op := range []string{"echoMessage", "takeMessages", "x"} {
				for _, params := range rpcCorpus {
					want, err := wsa.AppendEnvelope(nil, rpcTree(v, ns, op, params))
					if err != nil {
						t.Fatal(err)
					}
					got, err := soap.AppendRPC(nil, v, ns, op, params...)
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("AppendRPC(%v, %q, %q, %q) =\n%q, %v\nwant\n%q", v, ns, op, params, got, err, want)
					}
					want, _ = wsa.AppendEnvelope(nil, rpcTree(v, ns, op+"Response", params))
					got, err = soap.AppendRPCResponse(nil, v, ns, op, params...)
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("AppendRPCResponse(%v, %q, %q, %q) =\n%q, %v\nwant\n%q", v, ns, op, params, got, err, want)
					}
				}
			}
		}
	}
}

func TestAppendRPCRefusesEmptyNames(t *testing.T) {
	if _, err := soap.AppendRPC(nil, soap.V11, "urn:x", ""); err == nil {
		t.Fatal("empty operation accepted")
	}
	if _, err := soap.AppendRPC(nil, soap.V11, "urn:x", "op", soap.Param{Value: "v"}); err == nil {
		t.Fatal("empty parameter name accepted")
	}
	if _, err := wsa.AppendEnvelope(nil, rpcTree(soap.V11, "urn:x", "op", []soap.Param{{Value: "v"}})); err == nil {
		t.Fatal("the tree serializer accepts an empty name; AppendRPC should too")
	}
}

// TestDecodeRPCRoundTrip decodes every rendered corpus envelope back to
// what Parse and ParseRPC read from it.
func TestDecodeRPCRoundTrip(t *testing.T) {
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, ns := range rpcNamespaces {
			for _, params := range rpcCorpus {
				raw, _ := soap.AppendRPC(nil, v, ns, "echoMessage", params...)
				checkDecodeRPC(t, raw)
				raw, _ = soap.AppendRPCResponse(nil, v, ns, "echoMessage", params...)
				checkDecodeRPCResponse(t, raw, "echoMessage")
				checkDecodeRPCResponse(t, raw, "other")
			}
		}
	}
}

// TestRPCCodecZeroAlloc is the codec's allocation gate: rendering into a
// pooled buffer and decoding an entity-free canonical envelope into a
// slice with room for its parameters allocate nothing.
func TestRPCCodecZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are nondeterministic under the race detector")
	}
	params := []soap.Param{{Name: "boxId", Value: "0123456789abcdef"}, {Name: "token", Value: "fedcba9876543210"}, {Name: "max", Value: "64"}}
	raw, _ := soap.AppendRPC(nil, soap.V11, "urn:wsd:msgbox", "takeMessages", params...)
	params8 := make([]soap.Param, 0, 8)
	allocs := testing.AllocsPerRun(200, func() {
		buf := xmlsoap.GetBuffer()
		b, err := soap.AppendRPC(buf.B, soap.V11, "urn:wsd:msgbox", "takeMessages", params...)
		if err != nil {
			t.Fatal(err)
		}
		buf.B = b
		xmlsoap.PutBuffer(buf)
	})
	if allocs != 0 {
		t.Fatalf("AppendRPC into a pooled buffer allocated %.1f per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if call, _, err := soap.DecodeRPC(raw, params8); err != nil || len(call.Params) != 3 {
			t.Fatalf("DecodeRPC: %v, %d params", err, len(call.Params))
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeRPC of a canonical call allocated %.1f per op, want 0", allocs)
	}
	resp, _ := soap.AppendRPCResponse(nil, soap.V12, "urn:wsd:echo", "echoMessage", params...)
	results := make([]soap.Param, 0, 8)
	allocs = testing.AllocsPerRun(200, func() {
		var err error
		if results, err = soap.DecodeRPCResponse(resp, "echoMessage", results); err != nil || len(results) != 3 {
			t.Fatalf("DecodeRPCResponse: %v, %d results", err, len(results))
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeRPCResponse of a canonical response allocated %.1f per op, want 0", allocs)
	}
}

// TestDecodeRPCEntityValuesOutliveInput checks the aliasing rule: a value
// with references is unescaped into memory of the decode's own, so it
// survives the input being overwritten.
func TestDecodeRPCEntityValuesOutliveInput(t *testing.T) {
	raw, _ := soap.AppendRPCResponse(nil, soap.V11, "urn:wsd:msgbox", "takeMessages",
		soap.Param{Name: "count", Value: "2"},
		soap.Param{Name: "msg1", Value: "<a>1</a>"},
		soap.Param{Name: "msg2", Value: "<b>&</b>"})
	results, err := soap.DecodeRPCResponse(raw, "takeMessages", nil)
	if err != nil || len(results) != 3 {
		t.Fatalf("decode: %v, %+v", err, results)
	}
	for i := range raw {
		raw[i] = 'X'
	}
	if results[1].Value != "<a>1</a>" || results[2].Value != "<b>&</b>" {
		t.Fatalf("entity-bearing values changed with the input: %+v", results[1:])
	}
}

func TestDecodeRPCErrors(t *testing.T) {
	if _, _, err := soap.DecodeRPC([]byte("not xml"), nil); err == nil {
		t.Fatal("garbage accepted")
	} else if ee := (*soap.EnvelopeError)(nil); !errors.As(err, &ee) {
		t.Fatalf("garbage: %T %v, want *EnvelopeError", err, err)
	}
	fault := soap.FaultBytes(soap.V12, soap.FaultServer, "died & gone")
	_, _, err := soap.DecodeRPC(fault, nil)
	var f *soap.Fault
	if !errors.As(err, &f) || f.Reason != "died & gone" || f.Code != soap.FaultServer {
		t.Fatalf("fault call: %v", err)
	}
	if _, err := soap.DecodeRPCResponse(fault, "op", nil); !errors.As(err, &f) {
		t.Fatalf("fault response: %v", err)
	}
	raw, _ := soap.AppendRPCResponse(nil, soap.V11, "urn:x", "op")
	if _, err := soap.DecodeRPCResponse(raw, "other", nil); err == nil ||
		!strings.Contains(err.Error(), "unexpected RPC response element") {
		t.Fatalf("wrong operation: %v", err)
	}
}

// checkDecodeRPC holds DecodeRPC to Parse + ParseRPC on raw.
func checkDecodeRPC(t *testing.T, raw []byte) {
	t.Helper()
	call, v, err := soap.DecodeRPC(bytes.Clone(raw), []soap.Param{{Name: "stale", Value: "stale"}})
	env, perr := soap.Parse(raw)
	if perr != nil {
		var ee *soap.EnvelopeError
		if !errors.As(err, &ee) || err.Error() != perr.Error() {
			t.Fatalf("DecodeRPC(%q) error %v, want *EnvelopeError %v", raw, err, perr)
		}
		return
	}
	want, werr := soap.ParseRPC(env)
	if v != env.Version {
		t.Fatalf("DecodeRPC(%q) version %v, want %v", raw, v, env.Version)
	}
	checkSameError(t, raw, err, werr)
	if werr != nil {
		return
	}
	if call.ServiceNS != want.ServiceNS || call.Operation != want.Operation || !sameParams(call.Params, want.Params) {
		t.Fatalf("DecodeRPC(%q) = %+v, want %+v", raw, call, *want)
	}
}

// checkDecodeRPCResponse holds DecodeRPCResponse to Parse +
// ParseRPCResponse on raw.
func checkDecodeRPCResponse(t *testing.T, raw []byte, op string) {
	t.Helper()
	got, err := soap.DecodeRPCResponse(bytes.Clone(raw), op, []soap.Param{{Name: "stale"}})
	env, perr := soap.Parse(raw)
	if perr != nil {
		var ee *soap.EnvelopeError
		if !errors.As(err, &ee) || err.Error() != perr.Error() {
			t.Fatalf("DecodeRPCResponse(%q) error %v, want *EnvelopeError %v", raw, err, perr)
		}
		return
	}
	want, werr := soap.ParseRPCResponse(env, op)
	checkSameError(t, raw, err, werr)
	if werr == nil && !sameParams(got, want) {
		t.Fatalf("DecodeRPCResponse(%q, %q) = %+v, want %+v", raw, op, got, want)
	}
}

func checkSameError(t *testing.T, raw []byte, got, want error) {
	t.Helper()
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("decode(%q) error %v, want %v", raw, got, want)
	}
	var gf, wf *soap.Fault
	if errors.As(want, &wf) && (!errors.As(got, &gf) || *gf != *wf) {
		t.Fatalf("decode(%q) fault %+v, want %+v", raw, got, want)
	}
}

func sameParams(a, b []soap.Param) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// FuzzDecodeRPC is the decoder's differential fence: on any input,
// DecodeRPC and DecodeRPCResponse return exactly what Parse followed by
// ParseRPC or ParseRPCResponse returns — parameters, version, *Fault
// errors and error strings — whether the byte path read the input or
// declined to the parser. The seeds (canonical envelopes of both
// versions and their one-byte mutations, entity-bearing and empty values,
// faults, and envelopes with attributes, comments, CDATA or whitespace
// between elements) run under plain go test.
func FuzzDecodeRPC(f *testing.F) {
	var canon [][]byte
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for _, params := range rpcCorpus {
			raw, _ := soap.AppendRPC(nil, v, "urn:wsd:echo", "echoMessage", params...)
			canon = append(canon, raw)
			raw, _ = soap.AppendRPCResponse(nil, v, "urn:wsd:msgbox", "takeMessages", params...)
			canon = append(canon, raw)
		}
		canon = append(canon, soap.FaultBytes(v, soap.FaultClient, "bad <x> & y"))
		fd := &soap.Fault{Code: soap.FaultServer, Reason: "r", Detail: "d"}
		raw, _ := fd.Envelope(v).Marshal()
		canon = append(canon, raw)
	}
	for _, raw := range canon {
		f.Add(raw)
	}
	const pre = xmlsoap.Prolog
	const open = `<soapenv:Envelope xmlns:soapenv="` + soap.NS11 + `"><soapenv:Body>`
	const closing = `</soapenv:Body></soapenv:Envelope>`
	for _, s := range []string{
		"", "<", pre, "\x00\xff<<>>&&",
		pre + open + `<ns1:echoMessageResponse xmlns:ns1="urn:e"><a>x</a></ns1:echoMessageResponse>` + closing,
		pre + open + `<ns1:echoMessage xmlns:ns1="urn:e" k="v"><a>x</a></ns1:echoMessage>` + closing,
		pre + open + `<ns1:echoMessage xmlns:ns1="urn:e"><a k="v">x</a></ns1:echoMessage>` + closing,
		pre + open + `<ns1:echoMessage xmlns:ns1="urn:e"><!-- c --><a>x</a></ns1:echoMessage>` + closing,
		pre + open + `<ns1:echoMessage xmlns:ns1="urn:e"><a><![CDATA[<x>]]></a></ns1:echoMessage>` + closing,
		pre + open + `<ns1:echoMessage xmlns:ns1="urn:e"> <a>x</a>
</ns1:echoMessage>` + closing,
		pre + open + `<ns1:echoMessage xmlns:ns1="urn:e"><a>x<b/>y</a></ns1:echoMessage>` + closing,
		pre + open + `<ns1:echoMessage xmlns:ns1="urn:e"><a>&#65;&#x42;&unknown;</a></ns1:echoMessage>` + closing,
		pre + open + `<ns1:echoMessage xmlns:ns1="urn:e"><a>&amp;&lt;&gt;&quot;&apos;&#13;</a><b>&#13;</b><c></c></ns1:echoMessage>` + closing,
		pre + open + `<ns1:echoMessage xmlns:ns1="urn:e"><a>x</b></ns1:echoMessage>` + closing,
		pre + open + `<ns1:echoMessage xmlns:ns1="urn:e"><a>x > y</a><b>x]]>y</b></ns1:echoMessage>` + closing,
		pre + open + `<ns1:echoMessage xmlns:ns1=""><a>x</a></ns1:echoMessage>` + closing,
		pre + open + `<ns1:Fault xmlns:ns1="` + soap.NS11 + `"><faultstring>x</faultstring></ns1:Fault>` + closing,
		pre + open + `<ns1:Fault xmlns:ns1="urn:e"/>` + closing,
		pre + open + `<ns2:echoMessage xmlns:ns2="urn:e"/>` + closing,
		pre + open + `<echoMessage/>` + closing,
		pre + open + `<ns1:echoMessage xmlns:ns1="urn:e"><p:a>x</p:a></ns1:echoMessage>` + closing,
		pre + open + `<ns1:echoMessage xmlns:ns1="urn:e"><xmlns>x</xmlns></ns1:echoMessage>` + closing,
		pre + open + `<ns1:echoMessage xmlns:ns1="urn:e"><a>` + "  " + `</a><b>` + "\xef\xbf\xbe" + `</b></ns1:echoMessage>` + closing,
		pre + open + `<ns1:echoMessage xmlns:ns1="urn:e"/>` + closing + "\n",
		open + `<ns1:echoMessage xmlns:ns1="urn:e"/>` + closing,
		pre + `<soapenv:Envelope xmlns:soapenv="` + soap.NS11 + `"><soapenv:Header/><soapenv:Body><ns1:echoMessage xmlns:ns1="urn:e"/>` + closing,
		pre + `<soapenv:Envelope xmlns:soapenv="` + soap.NS11 + `"><soapenv:Body/></soapenv:Envelope>`,
	} {
		f.Add([]byte(s))
	}
	// One-byte mutations of the canonical envelopes, under plain go test
	// only: an engine run mutates the seeds itself.
	if fl := flag.Lookup("test.fuzz"); fl == nil || fl.Value.String() == "" {
		for _, raw := range canon[:4] {
			for i := len(xmlsoap.Prolog); i < len(raw); i += 3 {
				for _, b := range []byte{'<', '>', '&', '"', ' ', 'x', '/', 0x80} {
					m := bytes.Clone(raw)
					m[i] = b
					f.Add(m)
				}
			}
		}
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecodeRPC(t, raw)
		checkDecodeRPCResponse(t, raw, "echoMessage")
		checkDecodeRPCResponse(t, raw, "takeMessages")
		if env, err := soap.Parse(raw); err == nil {
			if b := env.BodyElement(); b != nil {
				if op, ok := strings.CutSuffix(b.Name.Local, "Response"); ok {
					checkDecodeRPCResponse(t, raw, op)
				}
			}
		}
	})
}
