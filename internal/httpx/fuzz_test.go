package httpx

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"repro/internal/httpx/refhead"
)

// FuzzHead fuzzes request/response head parsing — request lines, status
// lines, header shapes, Content-Length framing, chunked bodies with
// extensions and trailers — differentially against the frozen map-based
// parser (internal/httpx/refhead): the pooled in-place parser and the
// oracle must reach the same accept/reject verdict and, on accept,
// produce the same start line, the same logical header set (compared
// under canonical keys), and the same body. An accepted request must
// also survive a re-encode and re-read. The seed corpus always runs
// under plain `go test`; CI adds a short engine run (see
// .github/workflows/ci.yml).
func FuzzHead(f *testing.F) {
	seeds := []string{
		// Well-formed exchanges.
		"POST /msg HTTP/1.1\r\nContent-Type: text/xml\r\nContent-Length: 7\r\n\r\n<soap/>",
		"GET /registry HTTP/1.1\r\nHost: wsd:9000\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 6\r\n\r\nqueued",
		"HTTP/1.1 202 Accepted\r\n\r\n",
		"HTTP/1.0 204 No Content\r\nConnection: keep-alive\r\n\r\n",
		// Chunked edge cases: extensions, trailers, empty chunks, bad
		// sizes, missing terminators.
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3;ext=1\r\nabc\r\n0\r\nX-Trailer: v\r\n\r\n",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nfffffffff\r\n",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n-1\r\n\r\n",
		// Chunked edge cases pinned by TestChunkedEdgeCases: multi-line
		// trailers, quoted chunk extensions, the 0 terminator with
		// pipelined bytes behind it, and truncated framing.
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\nX-T1: a\r\nX-T2: b\r\n\r\n",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3;name=\"quoted;semi\"\r\nabc\r\n0\r\n\r\n",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nab\r\n0\r\n\r\ntrailing-bytes",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n8\r\nabc",
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3;ext=" + strings.Repeat("e", 9000) + "\r\nabc\r\n0\r\n\r\n",
		// Malformed request lines and headers.
		"NOT-HTTP\r\n\r\n",
		"GET /\r\n\r\n",
		"POST / HTTP/1.1\r\nNoColonHere\r\n\r\n",
		"POST / HTTP/1.1\r\n: empty-name\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n",
		"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1\r\n\r\n",
		// Exactly-one-terminator trimming: the seed parser's
		// TrimRight(line, "\r\n") also ate data bytes, so these inputs
		// diverged from the fixed grammar and are pinned as seeds.
		"GET / HTTP/1.1\r\r\n\r\n",                                                    // proto keeps its trailing '\r'
		"HTTP/1.1 200 OK\r\r\n\r\n",                                                   // reason keeps its trailing '\r'
		"POST / HTTP/1.1\r\nX-A: v\r\r\n\r\n",                                         // value '\r' removed by TrimSpace, not by line trimming
		"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\r\n\r\nab",                        // "\r\r\n" is a malformed header line, not end of head
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\r\n\r\n",        // "\r" trailer line does not end the trailer
		"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\r\nab\r\n0\r\n\r\n", // chunk-size line with stray '\r'
		// Header-name canonicalization territory: duplicate keys across
		// casings, non-ASCII bytes near case-mapping special cases.
		"POST / HTTP/1.1\r\ncontent-type: a\r\nCONTENT-TYPE: b\r\n\r\n",
		"POST / HTTP/1.1\r\nsoapaction: \"x\"\r\nSOAPAction: \"y\"\r\n\r\n",
		"POST / HTTP/1.1\r\nX-Key: kelvin\r\nX-Key: ascii\r\n\r\n",
		// Oversized-head shapes (the engine will grow these).
		"POST /" + strings.Repeat("x", 5000) + " HTTP/1.1\r\n\r\n",
		"POST / HTTP/1.1\r\nX-Big: " + strings.Repeat("y", 9000) + "\r\n\r\n",
		"POST / HTTP/1.1\r\n" + strings.Repeat("A: b\r\n", 2000) + "\r\n",
		// Bare-LF line endings and binary noise.
		"POST / HTTP/1.1\nContent-Length: 2\n\nok",
		"\x00\x01\x02\r\n\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkHead(t, data, true)
		checkHead(t, data, false)
	})
}

// headersMatch checks the pooled parser's header set against the
// oracle's canonical-key map.
func headersMatch(t *testing.T, ref refhead.Header, h *Header) {
	t.Helper()
	if len(ref) != h.Len() {
		t.Fatalf("header count divergence: oracle %v vs %d fields", ref, h.Len())
	}
	h.Range(func(k, v string) bool {
		want, ok := ref[CanonicalKey(k)]
		if !ok {
			t.Fatalf("header %q (canonical %q) missing from oracle %v", k, CanonicalKey(k), ref)
		}
		if want != v {
			t.Fatalf("header %q divergence: oracle %q vs %q", k, want, v)
		}
		return true
	})
}

// checkHead runs one parse of data as a request or response through the
// frozen oracle and the pooled reader, and cross-checks the two.
func checkHead(t *testing.T, data []byte, asRequest bool) {
	t.Helper()
	if asRequest {
		ref, refErr := refhead.ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		got, err := readRequest(t, bufio.NewReader(bytes.NewReader(data)))
		if (refErr == nil) != (err == nil) {
			t.Fatalf("request verdict divergence: oracle err=%v pooled err=%v", refErr, err)
		}
		if refErr != nil {
			return
		}
		if got.Method != ref.Method || got.Path != ref.Path || got.Proto != ref.Proto {
			t.Fatalf("request line divergence: %q %q %q vs oracle %q %q %q",
				got.Method, got.Path, got.Proto, ref.Method, ref.Path, ref.Proto)
		}
		if !bytes.Equal(got.Body, ref.Body) {
			t.Fatalf("body divergence: %q vs oracle %q", got.Body, ref.Body)
		}
		headersMatch(t, ref.Header, &got.Header)
		// A successfully parsed request — chunked ones included — must
		// survive a re-encode/re-parse round trip with its body and
		// framing intact (responses carry reason phrases that the reply
		// encoder may legitimately normalize, so the invariant is checked
		// on requests).
		re, err := readRequest(t, encodeRequest(t, got))
		if err != nil {
			t.Fatalf("re-parse of encoded request failed: %v", err)
		}
		if !bytes.Equal(re.Body, ref.Body) {
			t.Fatalf("body changed across re-encode: %q vs %q", ref.Body, re.Body)
		}
		return
	}
	ref, refErr := refhead.ReadResponse(bufio.NewReader(bytes.NewReader(data)))
	got, err := readResponse(t, bufio.NewReader(bytes.NewReader(data)))
	if (refErr == nil) != (err == nil) {
		t.Fatalf("response verdict divergence: oracle err=%v pooled err=%v", refErr, err)
	}
	if refErr != nil {
		return
	}
	if got.Proto != ref.Proto || got.Status != ref.Status || got.Reason != ref.Reason {
		t.Fatalf("status line divergence: %q %d %q vs oracle %q %d %q",
			got.Proto, got.Status, got.Reason, ref.Proto, ref.Status, ref.Reason)
	}
	if !bytes.Equal(got.Body, ref.Body) {
		t.Fatalf("body divergence: %q vs oracle %q", got.Body, ref.Body)
	}
	headersMatch(t, ref.Header, &got.Header)
}
