package httpx

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

// TestChunkedEdgeCases pins readChunkedInto/readBodyInto behavior on the
// framing corners: trailer sections, chunk extensions (including
// oversized ones), the 0-length terminator mid-stream with pipelined
// bytes behind it, and truncated framing. Each accepted/rejected shape
// here is also pinned as a FuzzHead seed, so the frozen refhead oracle
// keeps agreeing on the verdicts.
func TestChunkedEdgeCases(t *testing.T) {
	read := func(raw string) (*Request, error) {
		return readRequest(t, bufio.NewReader(strings.NewReader(raw)))
	}
	chunked := "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"

	t.Run("multi-line trailer", func(t *testing.T) {
		req, err := read(chunked + "3\r\nabc\r\n0\r\nX-T1: a\r\nX-T2: b\r\n\r\n")
		if err != nil {
			t.Fatal(err)
		}
		if string(req.Body) != "abc" {
			t.Fatalf("body = %q", req.Body)
		}
		// Trailer fields are framing, not message headers.
		if req.Header.Has("X-T1") || req.Header.Has("X-T2") {
			t.Fatal("trailer lines leaked into the header set")
		}
	})

	t.Run("oversized chunk extension", func(t *testing.T) {
		// A chunk-size line longer than the head bound must fail with
		// ErrHeaderTooBig instead of buffering it all.
		raw := chunked + "3;ext=" + strings.Repeat("e", maxHeaderBytes+16) + "\r\nabc\r\n0\r\n\r\n"
		if _, err := read(raw); !errors.Is(err, ErrHeaderTooBig) {
			t.Fatalf("err = %v, want ErrHeaderTooBig", err)
		}
	})

	t.Run("zero-length chunk ends body mid-stream", func(t *testing.T) {
		// The 0 chunk terminates the body even with more data queued on
		// the connection; the remainder must stay in the reader for the
		// next pipelined message.
		br := bufio.NewReader(strings.NewReader(
			chunked + "2\r\nab\r\n0\r\n\r\n" +
				"POST /next HTTP/1.1\r\nContent-Length: 4\r\n\r\nnext"))
		first, err := readRequest(t, br)
		if err != nil {
			t.Fatal(err)
		}
		if string(first.Body) != "ab" {
			t.Fatalf("first body = %q", first.Body)
		}
		second, err := readRequest(t, br)
		if err != nil {
			t.Fatalf("pipelined request after chunked terminator: %v", err)
		}
		if second.Path != "/next" || string(second.Body) != "next" {
			t.Fatalf("second = %s %q", second.Path, second.Body)
		}
	})

	t.Run("missing CRLF after chunk data", func(t *testing.T) {
		if _, err := read(chunked + "3\r\nabc"); err == nil {
			t.Fatal("chunk without trailing CRLF accepted")
		}
	})

	t.Run("missing final CRLF after trailer", func(t *testing.T) {
		if _, err := read(chunked + "3\r\nabc\r\n0\r\n"); err == nil {
			t.Fatal("terminator without blank line accepted")
		}
	})

	t.Run("truncated chunk data", func(t *testing.T) {
		if _, err := read(chunked + "8\r\nabc"); err == nil {
			t.Fatal("truncated chunk accepted")
		}
	})

	t.Run("extension ignored", func(t *testing.T) {
		req, err := read(chunked + "3;name=\"quoted;semi\"\r\nabc\r\n0\r\n\r\n")
		if err != nil {
			t.Fatal(err)
		}
		// The parser cuts at the first ';' — anything after is ignored,
		// including quoted semicolons (framing only needs the size).
		if string(req.Body) != "abc" {
			t.Fatalf("body = %q", req.Body)
		}
	})
}

// TestReadBodyIntoReusesCapacity: a body that fits the buffer's spare
// capacity is read in place, and a failed read hands the buffer back cut
// to the body's start, so the stale bytes of a reused buffer never pass
// for body bytes.
func TestReadBodyIntoReusesCapacity(t *testing.T) {
	for _, tc := range []struct {
		name, header, wire, body string
	}{
		{"content-length", "Content-Length", "abcdef", "abcdef"},
		{"chunked", "Transfer-Encoding", "3\r\nabc\r\n3\r\ndef\r\n0\r\n\r\n", "abcdef"},
		{"content-length short", "Content-Length", "abc", ""},
		{"chunked short", "Transfer-Encoding", "3\r\nabc\r\n8\r\nde", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var h Header
			if tc.header == "Content-Length" {
				h.Set("Content-Length", "6")
			} else {
				h.Set("Transfer-Encoding", "chunked")
			}
			buf := make([]byte, 64)
			for i := range buf {
				buf[i] = 'X' // a previous message's bytes
			}
			dst := append(buf[:0], "HEAD"...)
			got, n, err := readBodyInto(bufio.NewReader(strings.NewReader(tc.wire)), &h, dst)
			if tc.body == "" {
				if err == nil {
					t.Fatal("truncated body accepted")
				}
				if len(got) != len("HEAD") {
					t.Fatalf("failed read returned %q, want the head alone", got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if &got[0] != &buf[0] {
				t.Fatal("body that fits the spare capacity moved the buffer")
			}
			if string(got) != "HEAD"+tc.body || n != len(tc.body) {
				t.Fatalf("read %q (n=%d), want %q", got, n, "HEAD"+tc.body)
			}
		})
	}
}
