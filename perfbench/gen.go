package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"repro/internal/echoservice"
	"repro/internal/soap"
	"repro/internal/wsa"
	"repro/internal/xmlsoap"
)

// Every input the stack sees is drawn from the run seed: message IDs,
// payload sizes and bytes, backend choice and the foreign-header share.
// The same seed yields the same envelopes.

// idPrefix is the fixed part of every MessageID the benchmark mints.
// IDs look like "urn:uuid:<tag>-<sender>-4000-8000-<seq>"; the tag is
// derived from the seed, so a reply's RelatesTo identifies the sender and
// sequence number of the exchange it completes, and a trace seam can
// spot the exchange in raw wire bytes. RPC calls carry a 16-byte message
// of the same kind: "P", three tag digits, one sender and eleven
// sequence digits.
const idPrefix = "urn:uuid:"

// opKey packs (sender, seq) into one comparable key.
type opKey uint64

func mkKey(sender, seq int) opKey { return opKey(uint64(sender)<<40 | uint64(seq)) }

func (k opKey) sender() int { return int(k >> 40) }
func (k opKey) seq() int    { return int(k & (1<<40 - 1)) }

// ids mints and parses the run's exchange identifiers.
type ids struct {
	rpc    bool
	marker []byte // what precedes sender and sequence digits
	tail   int    // length after the marker
}

func newIDs(seed uint64, rpc bool) ids {
	tag := fmt.Sprintf("%08x", uint32(seed*0x9e3779b97f4a7c15>>32)|1)
	if rpc {
		return ids{rpc: true, marker: []byte("P" + tag[:3]), tail: 12}
	}
	return ids{marker: []byte(idPrefix + tag + "-"), tail: 4 + 11 + 12}
}

func (g ids) mint(sender, seq int) string {
	if g.rpc {
		return fmt.Sprintf("%s%01x%011x", g.marker, sender, seq)
	}
	return fmt.Sprintf("%s%04x-4000-8000-%012x", g.marker, sender, seq)
}

// parse recovers (sender, seq) from an identifier minted by this run.
// Anything else — a foreign ID, a truncated or altered one — reports
// false.
func (g ids) parse(id []byte) (opKey, bool) {
	rest, ok := bytes.CutPrefix(id, g.marker)
	if !ok || len(rest) != g.tail {
		return 0, false
	}
	sd, qd := rest[:1], rest[1:]
	if !g.rpc {
		// "ssss-4000-8000-qqqqqqqqqqqq"
		if string(rest[4:15]) != "-4000-8000-" {
			return 0, false
		}
		sd, qd = rest[:4], rest[15:]
	}
	s, err1 := strconv.ParseUint(string(sd), 16, 16)
	q, err2 := strconv.ParseUint(string(qd), 16, 40)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return mkKey(int(s), int(q)), true
}

// payload is one generated message body: the element the peer library
// sends and the exact bytes the echoed reply's Body must carry.
type payload struct {
	el   *xmlsoap.Element
	body []byte // canonical rendering of el inside an envelope Body
}

const payloadAlphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

// newPayloads draws n bodies whose text lengths are log-uniform in
// [minLen, maxLen] (equal bounds give a fixed size). The sizes are
// stratified — one draw from each of n equal slices of the log range —
// so every seed gets the same size mix and differs only in which body
// each message carries and in the bytes themselves.
func newPayloads(r *rand.Rand, n, minLen, maxLen int) ([]payload, error) {
	out := make([]payload, n)
	lo, hi := math.Log(float64(minLen)), math.Log(float64(maxLen))
	for i := range out {
		size := int(math.Round(math.Exp(lo + (float64(i)+r.Float64())/float64(n)*(hi-lo))))
		b := make([]byte, size)
		for j := range b {
			b[j] = payloadAlphabet[r.IntN(len(payloadAlphabet))]
		}
		el := xmlsoap.NewText(echoservice.EchoNS, "echo", string(b))
		body, err := renderedBody(el)
		if err != nil {
			return nil, err
		}
		out[i] = payload{el: el, body: body}
	}
	return out, nil
}

// renderedBody renders el the way the peer library does and returns a
// copy of the envelope's Body content, the span a byte-equal echo must
// reproduce.
func renderedBody(el *xmlsoap.Element) ([]byte, error) {
	h := &wsa.Headers{To: "http://x/", MessageID: "urn:uuid:x"}
	raw, err := wsa.AppendRewritten(nil, soap.New(soap.V11).SetBody(el), h)
	if err != nil {
		return nil, err
	}
	var sk wsa.Skim
	if !wsa.SkimEnvelope(raw, &sk) {
		return nil, fmt.Errorf("generated envelope is not canonical")
	}
	return bytes.Clone(sk.Body), nil
}

// foreignEnvelope renders a message carrying a non-WS-Addressing header
// block, which the dispatcher's skim must decline to the full parser.
func foreignEnvelope(p payload, h *wsa.Headers, trace string) ([]byte, error) {
	env := soap.New(soap.V11).SetBody(p.el)
	env.AddHeader(xmlsoap.NewText("urn:perfbench:custom", "Trace", trace))
	h.Apply(env)
	return env.Marshal()
}

// seqRand returns the deterministic generator of one sender's choices.
func seqRand(seed uint64, stream int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(stream)*0x9e3779b97f4a7c15+1))
}
