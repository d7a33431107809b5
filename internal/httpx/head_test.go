package httpx

import (
	"bufio"
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// TestExactLineTrimming pins the one-terminator rule: parsing strips
// exactly one "\r\n" (or bare "\n") per line, never data bytes. The seed
// parser's TrimRight(line, "\r\n") ate every trailing CR/LF, which
// silently altered values and turned "\r\r\n" into an end-of-head blank
// line; these cases are also pinned in the FuzzHead seed corpus.
func TestExactLineTrimming(t *testing.T) {
	// A '\r' before the terminator belongs to the line. For header
	// values it is then removed by value trimming (TrimSpace treats
	// '\r' as whitespace), so the value is unchanged...
	req, err := readRequest(t, bufio.NewReader(strings.NewReader(
		"POST / HTTP/1.1\r\nX-A: v\r\r\n\r\n")))
	if err != nil {
		t.Fatal(err)
	}
	if got := req.Header.Get("X-A"); got != "v" {
		t.Fatalf("X-A = %q, want %q", got, "v")
	}
	// ...but for the request line it is data: the proto keeps it.
	req, err = readRequest(t, bufio.NewReader(strings.NewReader(
		"GET / HTTP/1.1\r\r\n\r\n")))
	if err != nil {
		t.Fatal(err)
	}
	if req.Proto != "HTTP/1.1\r" {
		t.Fatalf("proto = %q, want trailing CR preserved", req.Proto)
	}
	// And a lone "\r\r\n" line is a malformed header line (no colon),
	// not the blank line that ends the head.
	_, err = readRequest(t, bufio.NewReader(strings.NewReader(
		"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\r\n\r\nab")))
	if err == nil {
		t.Fatal("\\r\\r\\n accepted as end-of-head blank line")
	}
}

// TestAppendWireManyHeaders exercises the spill past the wireKeyScratch
// stack scratch: more keys than the scratch holds must still render
// sorted and complete. (Before the constant was named, >16 keys worked
// only by accident of append semantics.)
func TestAppendWireManyHeaders(t *testing.T) {
	const n = wireKeyScratch + 9
	var h Header
	for i := 0; i < n; i++ {
		h.Set(fmt.Sprintf("X-Key-%02d", i), fmt.Sprintf("v%d", i))
	}
	wire := string(h.appendWire(nil, 7, "somehost:80", false))
	lines := strings.Split(strings.TrimSuffix(wire, "\r\n\r\n"), "\r\n")
	// n stored keys + Content-Length + Host.
	if len(lines) != n+2 {
		t.Fatalf("rendered %d header lines, want %d:\n%s", len(lines), n+2, wire)
	}
	if !sort.StringsAreSorted(lines) {
		t.Fatalf("header lines not sorted:\n%s", wire)
	}
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("X-Key-%02d: v%d", i, i)
		if !strings.Contains(wire, want+"\r\n") {
			t.Fatalf("missing %q in:\n%s", want, wire)
		}
	}
	if !strings.Contains(wire, "Content-Length: 7\r\n") || !strings.Contains(wire, "Host: somehost:80\r\n") {
		t.Fatalf("synthetic headers missing:\n%s", wire)
	}
	// And a parse of the rendered section agrees field for field.
	req, err := readRequest(t, bufio.NewReader(strings.NewReader("POST / HTTP/1.1\r\n"+wire+"1234567")))
	if err != nil {
		t.Fatal(err)
	}
	if req.Header.Len() != n+2 {
		t.Fatalf("re-parse saw %d fields, want %d", req.Header.Len(), n+2)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("X-Key-%02d", i)
		if got := req.Header.Get(k); got != fmt.Sprintf("v%d", i) {
			t.Fatalf("%s = %q after round trip", k, got)
		}
	}
}

// TestCanonicalKeyEdgeCases is the direct table for CanonicalKey /
// isCanonicalKey: empty segments, the special mixed-case spellings in
// every casing, and non-letter bytes at segment starts.
func TestCanonicalKeyEdgeCases(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"-", "-"},
		{"--", "--"},
		{"x--y", "X--Y"},
		{"-leading", "-Leading"},
		{"trailing-", "Trailing-"},
		{"content-type", "Content-Type"},
		{"Content-Type", "Content-Type"},
		{"CONTENT-TYPE", "Content-Type"},
		{"soapaction", "SOAPAction"},
		{"SOAPACTION", "SOAPAction"},
		{"sOaPaCtIoN", "SOAPAction"},
		{"SOAPAction", "SOAPAction"},
		{"www-authenticate", "WWW-Authenticate"},
		{"WWW-AUTHENTICATE", "WWW-Authenticate"},
		{"WWW-Authenticate", "WWW-Authenticate"},
		{"1-digit", "1-Digit"},
		{"x-1a", "X-1a"},
		{"x_y", "X_y"},
		{"@at", "@at"},
		{"a@B", "A@b"},
	}
	for _, c := range cases {
		if got := CanonicalKey(c.in); got != c.want {
			t.Errorf("CanonicalKey(%q) = %q, want %q", c.in, got, c.want)
		}
		// The fast-path classifier must agree with the transform: a key
		// is canonical iff the transform leaves it unchanged.
		if got := isCanonicalKey(c.in); got != (CanonicalKey(c.in) == c.in) {
			t.Errorf("isCanonicalKey(%q) = %v disagrees with CanonicalKey", c.in, got)
		}
		// Idempotence: canonicalizing a canonical key is the identity.
		if got := CanonicalKey(c.want); got != c.want {
			t.Errorf("CanonicalKey(%q) = %q, not idempotent", c.want, got)
		}
	}
}

// TestSameKeyAgreesWithCanonicalKey holds sameKey's one-pass fold to
// its definition, CanonicalKey(a) == CanonicalKey(b): a table of ASCII,
// mixed-case, different-length and non-ASCII keys (the Kelvin sign
// U+212A lowercases to 'k', U+0130 to 'i', so keys of different byte
// lengths can name one header), then random keys over an alphabet of the
// same troublemakers.
func TestSameKeyAgreesWithCanonicalKey(t *testing.T) {
	keys := []string{
		"", "-", "a", "A", "k", "K", "Host", "host", "HOST", "Hos", "Hostx",
		"Content-Type", "content-type", "CONTENT-TYPE", "Content-Length",
		"content_type", "SOAPAction", "soapaction", "SOAPACTION", "SOAPActio",
		"soapactİon", "soapactİon", "WWW-Authenticate", "www-authenticate",
		"K", "Key", "Key", "key", "KEY", "x-K", "X-k", "x-k",
		"KK", "kk", "aÿb", "Aÿb", "aÿc", "ÿ", "Ã", "é", "É",
		"x-é", "X-É", "long-key-with-many-segments", "Long-Key-With-Many-Segments",
	}
	check := func(a, b string) bool {
		want := CanonicalKey(a) == CanonicalKey(b)
		if got := sameKey(a, b); got != want {
			t.Errorf("sameKey(%q, %q) = %v; canonical forms %q, %q", a, b, got, CanonicalKey(a), CanonicalKey(b))
			return false
		}
		return true
	}
	for _, a := range keys {
		for _, b := range keys {
			check(a, b)
		}
	}
	alphabet := []string{"a", "A", "k", "K", "K", "i", "I", "İ", "s", "S", "ſ", "-", "_", "1", "é", "É", "ÿ"}
	f := func(x, y []uint8) bool {
		var a, b strings.Builder
		for _, c := range x {
			a.WriteString(alphabet[int(c)%len(alphabet)])
		}
		for i, c := range y {
			// Mostly fold-equal to a, so matches and near misses both occur.
			if i < len(x) && c%4 != 0 {
				c = x[i]
				if c%2 == 0 {
					c++
				}
			}
			b.WriteString(alphabet[int(c)%len(alphabet)])
		}
		return check(a.String(), b.String())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// TestHeaderRangeAndDetach covers iteration order, spill behaviour past
// the inline capacity, and Detach's copy-out.
func TestHeaderRangeAndDetach(t *testing.T) {
	var h Header
	const n = inlineHeaderKVs + 3
	for i := 0; i < n; i++ {
		h.Set(fmt.Sprintf("K-%02d", i), fmt.Sprintf("v%d", i))
	}
	if h.Len() != n {
		t.Fatalf("Len = %d, want %d", h.Len(), n)
	}
	i := 0
	h.Range(func(k, v string) bool {
		if k != fmt.Sprintf("K-%02d", i) {
			t.Fatalf("Range out of wire order at %d: %q", i, k)
		}
		i++
		return true
	})
	h.Del("K-01")
	if h.Len() != n-1 || h.Has("K-01") {
		t.Fatal("Del failed")
	}
	last := fmt.Sprintf("K-%02d", n-1)
	if h.Get(last) != fmt.Sprintf("v%d", n-1) {
		t.Fatal("spilled field lost after Del")
	}
	c := h.Clone()
	h.Set("K-02", "mutated")
	if c.Get("K-02") != "v2" {
		t.Fatal("Clone shares storage with original")
	}
	h.Detach() // must not change observable contents
	if h.Get("K-02") != "mutated" || h.Len() != n-1 {
		t.Fatal("Detach changed contents")
	}
}

// TestWantsCloseNoAlloc pins the satellite fix: the Connection-token
// compare must not allocate, even for mixed-case values (the old path
// lowercased the value with strings.ToLower on every exchange).
func TestWantsCloseNoAlloc(t *testing.T) {
	var h Header
	h.Set("Connection", "Keep-Alive")
	sink := false
	if allocs := testing.AllocsPerRun(100, func() {
		sink = wantsClose("HTTP/1.0", &h) || sink
	}); allocs != 0 {
		t.Fatalf("wantsClose allocated %.1f times per op", allocs)
	}
	if sink {
		t.Fatal("HTTP/1.0 Keep-Alive treated as close")
	}
	h.Set("Connection", "CLOSE")
	if !wantsClose("HTTP/1.1", &h) {
		t.Fatal("case-insensitive close not honoured")
	}
}

// TestReadHeadSteadyStateAllocs is the head-parsing allocation gate,
// ratcheted for the Exchange redesign: in the steady state (pools warm),
// reading a full request or response — head and body — into a reused
// message struct allocates NOTHING. Head parsing (line splitting, header
// fields, body framing) lives entirely in the message's pooled buffer,
// and the struct is the connection's, reused across requests; this is
// exactly the read serveConn and the client's persistConn perform per
// message.
func TestReadHeadSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool caching is randomized under the race detector")
	}
	rawReq := []byte("POST /msg HTTP/1.1\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: 7\r\nHost: wsd:9100\r\n\r\n<soap/>")
	rawResp := []byte("HTTP/1.1 200 OK\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: 6\r\n\r\nqueued")

	src := bytes.NewReader(rawReq)
	br := bufio.NewReader(src)

	// Reused-exchange read: zero allocations.
	var req Request
	readReqInto := func() {
		src.Reset(rawReq)
		br.Reset(src)
		if err := ReadRequestInto(br, &req); err != nil {
			t.Fatal(err)
		}
		if req.Method != "POST" || req.Header.Len() != 3 || len(req.Body) != 7 {
			t.Fatalf("parsed %q %d fields body %q", req.Method, req.Header.Len(), req.Body)
		}
		req.Release()
	}
	for i := 0; i < 10; i++ {
		readReqInto() // warm the buffer pool
	}
	if allocs := testing.AllocsPerRun(100, readReqInto); allocs != 0 {
		t.Errorf("reused-struct request read allocated %.1f times per op, want 0", allocs)
	}

	var resp Response
	readRespInto := func() {
		src.Reset(rawResp)
		br.Reset(src)
		if err := ReadResponseInto(br, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 || resp.Header.Len() != 2 || len(resp.Body) != 6 {
			t.Fatalf("parsed %d, %d fields, body %q", resp.Status, resp.Header.Len(), resp.Body)
		}
		resp.Release()
	}
	for i := 0; i < 10; i++ {
		readRespInto()
	}
	if allocs := testing.AllocsPerRun(100, readRespInto); allocs != 0 {
		t.Errorf("reused-struct response read allocated %.1f times per op, want 0", allocs)
	}
}

// BenchmarkReadHead lives in the repository root's codec_bench_test.go:
// this package's TestMain enables the pooled-buffer lifecycle checker,
// whose poison scans would dominate a ~1 µs head parse. The allocation
// behaviour is gated here by TestReadHeadSteadyStateAllocs regardless.
