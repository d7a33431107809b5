package xmlsoap

import (
	"strings"
	"testing"

	"repro/internal/xmlsoap/xmltest"
)

// contextContracts spells out each context's stop set byte by byte, as
// the per-byte switches the class table replaced decided it.
var contextContracts = [numContexts]func(c byte) bool{
	CanonText: func(c byte) bool {
		return !(c == ' ' || c == '\t' || c == '\n' ||
			c > 0x20 && c < 0x7f && c != '&' && c != '<' && c != '>')
	},
	CanonAttr: func(c byte) bool {
		return !(c >= 0x20 && c < 0x7f && c != '"' && c != '&' && c != '<' && c != '>')
	},
	CanonValue: func(c byte) bool {
		return !(c > 0x20 && c < 0x7f && c != '&' && c != '<' && c != '>')
	},
	escapeText: func(c byte) bool {
		return c >= 0x80 || c == '&' || c == '<' || c == '>'
	},
	escapeAttr: func(c byte) bool {
		return c >= 0x80 || c == '&' || c == '<' || c == '>' || c == '"' || c == '\n' || c == '\t'
	},
	parseText: func(c byte) bool {
		return badChar(c) || c == '<' || c == '&' || c == ']' || c == '\r'
	},
	parseCDATA: func(c byte) bool {
		return badChar(c) || c == ']' || c == '\r'
	},
	parseAttr: func(c byte) bool {
		return badChar(c) || c == '"' || c == '\'' || c == '<' || c == '&' || c == '\r'
	},
}

// badChar: a control outside the XML Char production, or a byte of a
// multi-byte rune, which the tokenizer checks by rune.
func badChar(c byte) bool {
	return c < 0x20 && c != '\t' && c != '\n' && c != '\r' || c >= 0x80
}

func stops(ctx Context, c byte) bool { return charClass[c]&contextStops[ctx] != 0 }

func TestContextStopSets(t *testing.T) {
	for ctx, want := range contextContracts {
		for c := 0; c < 256; c++ {
			if got := stops(Context(ctx), byte(c)); got != want(byte(c)) {
				t.Errorf("context %d byte %#02x: stops = %v, want %v", ctx, c, got, !got)
			}
		}
	}
}

// TestCanonicalIsPlainForEveryReader is the agreement the shared table
// exists for: a byte the skim passes verbatim is one the escaper emits
// verbatim and the tokenizer reads verbatim, so a canonical run is a
// fixed point of parse and re-serialize. The tokenizer also stops at
// two bytes only to look for a terminator a canonical run cannot hold:
// ']' for "]]>" (canonical text has no raw '>') and the apostrophe for
// the end of a single-quoted value (canonical values are double-quoted).
func TestCanonicalIsPlainForEveryReader(t *testing.T) {
	pairs := []struct{ canon, esc, parse Context }{
		{CanonText, escapeText, parseText},
		{CanonAttr, escapeAttr, parseAttr},
		{CanonValue, escapeText, parseText},
	}
	for _, p := range pairs {
		for c := 0; c < 256; c++ {
			b := byte(c)
			if stops(p.canon, b) || b == ']' || b == '\'' {
				continue
			}
			if stops(p.esc, b) || stops(p.parse, b) {
				t.Errorf("byte %#02x is plain in canonical context %d but not in %d or %d", c, p.canon, p.esc, p.parse)
			}
		}
	}
}

// TestSkipWordBoundarySweep compares Skip with a byte-at-a-time scan of
// the same stop sets, from each of the first two offsets of every sweep
// run, in every context.
func TestSkipWordBoundarySweep(t *testing.T) {
	xmltest.WordBoundaryRuns(func(run []byte) {
		for ctx := Context(0); ctx < numContexts; ctx++ {
			for from := 0; from < 2 && from <= len(run); from++ {
				want := from
				for want < len(run) && !contextContracts[ctx](run[want]) {
					want++
				}
				for _, got := range [...]int{Skip(run, from, ctx), skip(string(run), from, ctx)} {
					if got != want {
						t.Fatalf("context %d, skip(%q, %d) = %d, want %d", ctx, run, from, got, want)
					}
				}
			}
		}
	})
}

// BenchmarkAppendEscapedText: "standard" renders the text values of a
// standard dispatcher message (the header values and a short body);
// the 64 KiB rows are one long plain run, an escapable byte in every 8
// with tab and newline runs, and text that is mostly multi-byte UTF-8.
func BenchmarkAppendEscapedText(b *testing.B) {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	const escaped = "Lorem i&psum d<lor sit>\t\n\tamet, c&nsec<tetur\n\n\t\tadi>isc&ng e<it "
	const utf8Text = "héllo wörld — 日本語のテキスト, ünïcode ✓ "
	repeat := func(s string) string { return strings.Repeat(s, 64<<10/len(s)+1)[:64<<10] }
	rows := []struct {
		name string
		in   []string
	}{
		{"standard", []string{"wsd://echo-rpc", "urn:wsd:echo/echo",
			"urn:uuid:6ba7b810-9dad-11d1-80b4-00c04fd430c8",
			"http://schemas.xmlsoap.org/ws/2004/08/addressing/role/anonymous", "steady"}},
		{"64KiB", []string{repeat(alphabet)}},
		{"64KiB-escaped", []string{repeat(escaped)}},
		{"64KiB-utf8", []string{repeat(utf8Text)}},
	}
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			n := 0
			for _, s := range r.in {
				n += len(s)
			}
			dst := make([]byte, 0, 2*n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = dst[:0]
				for _, s := range r.in {
					dst = AppendEscapedText(dst, s)
				}
			}
		})
	}
}
