package wsa

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"repro/internal/soap"
	"repro/internal/xmlsoap"
	"repro/internal/xmlsoap/xmltest"
)

// FuzzSkimDifferential fences the skim's two-sided contract against the
// full parser: for arbitrary bytes the skim must either decline (always
// safe — the dispatcher falls back to soap.Parse) or agree with the
// parser on every extracted header value AND produce rewrite output
// byte-identical to the parse path. A skim that accepts what the parser
// rejects, extracts a different value, or splices a body whose
// re-render differs is a divergence and fails the fuzz.
//
// Seeded with the full (2 versions × 128 header shapes × 5 body shapes)
// canonical cross product, 13 handcrafted non-canonical and malformed
// edge cases, and the character-class word-boundary sweep
// (xmltest.WordBoundaryRuns) in body text and an attribute value (plain
// go test only).
func FuzzSkimDifferential(f *testing.F) {
	bodies := []*xmlsoap.Element{
		xmlsoap.NewText("urn:wsd:echo", "echo", "payload"),
		xmlsoap.NewText("urn:wsd:echo", "echo", `a&b<c>d"e`),
		xmlsoap.New("urn:x:1", "op").Add(xmlsoap.New("urn:x:2", "inner")),
		xmlsoap.New("urn:x:1", "op").Add(xmlsoap.New(NS, "EndpointReference")),
		xmlsoap.New("urn:x:1", "op").SetAttr("", "k", "v<&>").SetAttr("urn:x:2", "q", "w"),
	}
	for _, v := range []soap.Version{soap.V11, soap.V12} {
		for mask := 0; mask < 1<<len(fieldLocals); mask++ {
			for _, body := range bodies {
				env := skimTestEnvelope(v, mask, body)
				raw, err := MarshalEnvelope(env)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(raw)
			}
		}
	}
	const pre = xmlsoap.Prolog
	const envOpen = `<soapenv:Envelope xmlns:soapenv="` + soap.NS11 + `">`
	for _, s := range []string{
		"",
		pre,
		envOpen + `<soapenv:Body><ns1:op xmlns:ns1="urn:e">x</ns1:op></soapenv:Body></soapenv:Envelope>`,
		pre + envOpen + `<soapenv:Header><f:Custom xmlns:f="urn:f">x</f:Custom></soapenv:Header><soapenv:Body><ns1:op xmlns:ns1="urn:e">x</ns1:op></soapenv:Body></soapenv:Envelope>`,
		pre + envOpen + `<soapenv:Header><wsa:To xmlns:wsa="` + NS + `" soapenv:mustUnderstand="1">wsd://x</wsa:To></soapenv:Header><soapenv:Body><ns1:op xmlns:ns1="urn:e">x</ns1:op></soapenv:Body></soapenv:Envelope>`,
		pre + envOpen + `<soapenv:Body><ns1:op xmlns:ns1="urn:e"><![CDATA[x]]></ns1:op></soapenv:Body></soapenv:Envelope>`,
		pre + envOpen + `<soapenv:Body><ns1:op xmlns:ns1="urn:e">a&#65;b</ns1:op></soapenv:Body></soapenv:Envelope>`,
		pre + envOpen + `<soapenv:Body><ns1:op xmlns:ns1="urn:e"> </ns1:op></soapenv:Body></soapenv:Envelope>`,
		pre + envOpen + `<soapenv:Body><ns1:op xmlns:ns1="urn:e"></ns1:op></soapenv:Body></soapenv:Envelope>`,
		pre + envOpen + `<soapenv:Body><ns1:op xmlns:ns1='urn:e'>x</ns1:op></soapenv:Body></soapenv:Envelope>`,
		pre + envOpen + `<soapenv:Body><op xmlns="urn:e">x</op></soapenv:Body></soapenv:Envelope>`,
		pre + envOpen + `<soapenv:Header><wsa:ReplyTo xmlns:wsa="` + NS + `"><wsa:Address>urn:a</wsa:Address><wsa:ReferenceProperties><k>v</k></wsa:ReferenceProperties></wsa:ReplyTo></soapenv:Header><soapenv:Body><ns1:op xmlns:ns1="urn:e">x</ns1:op></soapenv:Body></soapenv:Envelope>`,
		pre + envOpen + `<soapenv:Body><ns1:op xmlns:ns1="urn:e">x</ns1:op></soapenv:Body></soapenv:Envelope>junk`,
	} {
		f.Add([]byte(s))
	}

	// The word-boundary sweep in body text and in an attribute value,
	// under plain go test only: an engine run would spend its whole
	// budget gathering baseline coverage for ~147k seeds.
	if fl := flag.Lookup("test.fuzz"); fl == nil || fl.Value.String() == "" {
		frames := skimSweepFrames(f)
		xmltest.WordBoundaryRuns(func(run []byte) {
			for _, fr := range frames {
				f.Add([]byte(fr[0] + string(run) + fr[1]))
			}
		})
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		var sk Skim
		if !SkimEnvelope(raw, &sk) {
			return // declining is always safe
		}
		env, err := soap.Parse(raw)
		if err != nil {
			t.Fatalf("skim accepted what the parser rejects: %v\ninput: %q", err, raw)
		}
		if env.Version != sk.Version {
			t.Fatalf("version divergence: skim %v parse %v", sk.Version, env.Version)
		}

		// Every header block must be a known WS-Addressing field and the
		// extracted values must match a last-wins walk (FromEnvelope's
		// rule) over the parsed envelope.
		var want [len(fieldLocals)]string
		for _, block := range env.Header {
			if block.Name.Space != NS {
				t.Fatalf("skim accepted foreign header block %v\ninput: %q", block.Name, raw)
			}
			f := fieldIndex(block.Name.Local)
			if f < 0 {
				t.Fatalf("skim accepted unknown wsa header %q\ninput: %q", block.Name.Local, raw)
			}
			if f < eprFieldStart {
				want[f] = block.Text
			} else {
				if len(block.Children) != 1 {
					t.Fatalf("skim accepted EPR with %d children\ninput: %q", len(block.Children), raw)
				}
				want[f] = block.ChildText(NS, "Address")
			}
		}
		var got [len(fieldLocals)]string
		sk.Fields(&got)
		for f, local := range fieldLocals {
			if got[f] != want[f] {
				t.Fatalf("span divergence on %s: skim %q parse %q\ninput: %q", local, got[f], want[f], raw)
			}
		}

		// The identity rewrite must be byte-identical to the parse path
		// rendering the same header values over the parsed body.
		skimOut, err := AppendSkimRewritten(nil, sk.Version, sk.Body, &got)
		if err != nil {
			t.Fatalf("skim rewrite failed on accepted input: %v\ninput: %q", err, raw)
		}
		h := &Headers{
			To: want[0], Action: want[1], MessageID: want[2], RelatesTo: want[3],
		}
		if want[4] != "" {
			h.From = &EPR{Address: want[4]}
		}
		if want[5] != "" {
			h.ReplyTo = &EPR{Address: want[5]}
		}
		if want[6] != "" {
			h.FaultTo = &EPR{Address: want[6]}
		}
		parseOut, err := AppendRewritten(nil, env, h)
		if err != nil {
			t.Fatalf("parse rewrite failed: %v\ninput: %q", err, raw)
		}
		if !bytes.Equal(skimOut, parseOut) {
			t.Fatalf("rewrite divergence:\nskim:  %q\nparse: %q\ninput: %q", skimOut, parseOut, raw)
		}
	})
}

// skimSweepFrames returns canonical envelopes split around one scanned
// run: the text of a body element and an attribute value. Each is
// marshalled with a placeholder, so everything outside the run is
// serializer output.
func skimSweepFrames(t testing.TB) [][2]string {
	const mark = "RUNMARK"
	envs := []*soap.Envelope{
		soap.New(soap.V11).SetBody(xmlsoap.NewText("urn:wsd:echo", "echo", mark)),
		soap.New(soap.V11).SetBody(xmlsoap.NewText("urn:x:1", "op", "x").SetAttr("", "k", mark)),
	}
	frames := make([][2]string, len(envs))
	for k, env := range envs {
		raw, err := MarshalEnvelope(env)
		if err != nil {
			t.Fatal(err)
		}
		before, after, ok := strings.Cut(string(raw), mark)
		if !ok {
			t.Fatalf("no run placeholder in %q", raw)
		}
		frames[k] = [2]string{before, after}
	}
	return frames
}
