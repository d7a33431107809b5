package xmlsoap

import (
	"fmt"
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
		return c >= 0x80 || c == '&' || c == '<' || c == '>' || c == '\r'
	},
	escapeAttr: func(c byte) bool {
		return c >= 0x80 || c == '&' || c == '<' || c == '>' || c == '"' || c == '\n' || c == '\t' || c == '\r'
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

// TestNibbleTables pins the kernel's tables to the class table: for
// every context and byte, the two lookups share a bucket exactly when
// the byte stops. It runs on every architecture.
func TestNibbleTables(t *testing.T) {
	for ctx := Context(0); ctx < numContexts; ctx++ {
		tab := &nibbleTables[ctx]
		for c := 0; c < 256; c++ {
			if got := tab[c&15]&tab[16+c>>4] != 0; got != stops(ctx, byte(c)) {
				t.Errorf("context %d byte %#02x: nibble tables say stop = %v", ctx, c, got)
			}
		}
	}
}

// contractStops is contextContracts evaluated once per byte value.
var contractStops = func() (t [numContexts][256]bool) {
	for ctx, stop := range contextContracts {
		for c := range 256 {
			t[ctx][c] = stop(byte(c))
		}
	}
	return t
}()

// firstStop is the byte-at-a-time scan Skip must agree with.
func firstStop(b []byte, from int, ctx Context) int {
	for from < len(b) && !contractStops[ctx][b[from]] {
		from++
	}
	return from
}

// skipPaths returns the values of useAVX2 to test: the word path, and
// the kernel where the CPU has AVX2.
func skipPaths() []bool {
	if useAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// checkSweep compares Skip on every path with firstStop from each of the
// first two offsets of every sweep run, in every context.
func checkSweep(t *testing.T, sweep func(func(run []byte))) {
	paths := skipPaths()
	defer func() { useAVX2 = paths[len(paths)-1] }()
	sweep(func(run []byte) {
		for ctx := Context(0); ctx < numContexts; ctx++ {
			want := firstStop(run, 0, ctx)
			for from := 0; from < 2 && from <= len(run); from++ {
				if from > want {
					want = firstStop(run, from, ctx)
				}
				for _, useAVX2 = range paths {
					if got := Skip(run, from, ctx); got != want {
						t.Fatalf("avx2=%v context %d, Skip(%q, %d) = %d, want %d", useAVX2, ctx, run, from, got, want)
					}
				}
			}
		}
	})
}

func TestSkipWordBoundarySweep(t *testing.T) { checkSweep(t, xmltest.WordBoundaryRuns) }

func TestSkipBlockBoundarySweep(t *testing.T) { checkSweep(t, xmltest.BlockBoundaryRuns) }

// FuzzSkip checks Skip against the byte-at-a-time scan for arbitrary
// bytes and start offsets, in every context, on both paths.
func FuzzSkip(f *testing.F) {
	long := strings.Repeat("plain ascii run ", 12)
	for _, s := range []string{"", "a<b", long, long + "&", long + "\xff" + long, long + long[:31] + "\r", "\t\n" + long + "]"} {
		f.Add([]byte(s), uint8(0))
		f.Add([]byte(s), uint8(3))
	}
	paths := skipPaths()
	f.Fuzz(func(t *testing.T, b []byte, from uint8) {
		defer func() { useAVX2 = paths[len(paths)-1] }()
		i := min(int(from), len(b))
		want := make([]int, numContexts)
		for ctx := range want {
			want[ctx] = firstStop(b, i, Context(ctx))
		}
		for _, useAVX2 = range paths {
			for ctx := Context(0); ctx < numContexts; ctx++ {
				if got := Skip(b, i, ctx); got != want[ctx] {
					t.Fatalf("avx2=%v context %d, Skip(%q, %d) = %d, want %d", useAVX2, ctx, b, i, got, want[ctx])
				}
			}
		}
	})
}

// BenchmarkSkip passes one plain run of n bytes ending in '<' in
// element content, on each path: the rows around the engage point are
// what wideAfter and wideMin are chosen from.
func BenchmarkSkip(b *testing.B) {
	paths := skipPaths()
	defer func() { useAVX2 = paths[len(paths)-1] }()
	for _, n := range []int{32, 64, 80, 96, 128, 256, 1024} {
		run := []byte(strings.Repeat("a", n) + "<")
		for _, wide := range paths {
			name := "word"
			if wide {
				name = "avx2"
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
				useAVX2 = wide
				b.SetBytes(int64(n))
				for b.Loop() {
					if Skip(run, 0, parseText) != n {
						b.Fatal("missed the stop")
					}
				}
			})
		}
	}
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
