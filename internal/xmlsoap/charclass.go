package xmlsoap

import (
	"math/bits"
	"slices"
)

// This file is the codec's one answer to "which bytes are plain": a
// [256] class table, the reading contexts defined as sets of classes,
// and Skip, which passes over a run of plain bytes eight at a time, or
// 32 at a time on long runs where the CPU has AVX2. The package doc
// states the contract.

// Byte classes. Every byte is in at most one; bytes in none of them
// (printable ASCII other than the ones named here) are plain everywhere.
const (
	clsLT     uint16 = 1 << iota // <
	clsAmp                       // &
	clsGT                        // >
	clsQuot                      // "
	clsApos                      // '
	clsRBrack                    // ]
	clsSpace                     // ' '
	clsTabNL                     // \t \n
	clsCR                        // \r
	clsCtl                       // the other C0 controls, outside the XML Char range
	clsDEL                       // 0x7f
	clsHigh                      // 0x80-0xff: UTF-8 leads and continuations
)

var charClass [256]uint16

func init() {
	for c := 0; c < 0x20; c++ {
		charClass[c] = clsCtl
	}
	charClass['\t'], charClass['\n'], charClass['\r'] = clsTabNL, clsTabNL, clsCR
	charClass[' '] = clsSpace
	charClass['<'], charClass['&'], charClass['>'] = clsLT, clsAmp, clsGT
	charClass['"'], charClass['\''], charClass[']'] = clsQuot, clsApos, clsRBrack
	charClass[0x7f] = clsDEL
	for c := 0x80; c < 0x100; c++ {
		charClass[c] = clsHigh
	}
}

// Context is one reading context: the set of byte classes a reader
// must stop at. Every other byte is plain there and Skip passes over it.
type Context uint8

const (
	// CanonText is element content in the serializer's canonical form,
	// as the wsa skim accepts it: printable ASCII, space, tab and
	// newline verbatim; &, < and > only as entities; nothing else.
	CanonText Context = iota
	// CanonAttr is a canonical double-quoted attribute or namespace
	// declaration value: printable ASCII and space verbatim; &, <, >, "
	// (and tab and newline) only as references; nothing else.
	CanonAttr
	// CanonValue is a WS-Addressing header value the skim splices
	// as-is: printable ASCII other than space, &, < and >.
	CanonValue
	escapeText // AppendEscapedText: bytes it escapes (&, <, >, \r), and UTF-8
	escapeAttr // AppendEscapedAttr: the same, plus ", tab and newline
	parseText  // tokenizer element content: markup, entities, the ]]> guard, \r, bad Chars
	parseCDATA // tokenizer CDATA: the ]]> terminator, \r, bad Chars
	parseAttr  // tokenizer attribute values: quotes, markup, entities, \r, bad Chars
	numContexts
)

// contextStops defines each context's stop set. Every context stops at
// non-ASCII; the canonical ones stop at everything the escapers rewrite
// or the tokenizer treats specially (the package doc names the two
// exceptions and why they are harmless).
var contextStops = [numContexts]uint16{
	CanonText:  clsLT | clsAmp | clsGT | clsCR | clsCtl | clsDEL | clsHigh,
	CanonAttr:  clsLT | clsAmp | clsGT | clsQuot | clsTabNL | clsCR | clsCtl | clsDEL | clsHigh,
	CanonValue: clsLT | clsAmp | clsGT | clsSpace | clsTabNL | clsCR | clsCtl | clsDEL | clsHigh,
	escapeText: clsLT | clsAmp | clsGT | clsCR | clsHigh,
	escapeAttr: clsLT | clsAmp | clsGT | clsQuot | clsTabNL | clsCR | clsHigh,
	parseText:  clsLT | clsAmp | clsRBrack | clsCR | clsCtl | clsHigh,
	parseCDATA: clsRBrack | clsCR | clsCtl | clsHigh,
	parseAttr:  clsLT | clsAmp | clsQuot | clsApos | clsCR | clsCtl | clsHigh,
}

// wordFilter is a context's stop set as tests on eight SWAR lanes at
// once: bytes below lo, tab and newline (cleared from or added to the
// bytes below lo), bytes at or above hi, and up to three single bytes or
// pairs of bytes one bit apart (b|or == eq). The range and tab/newline
// tests are exact in every lane; an equality test is exact in its lowest
// flagged lane, and any lane it flags above that one sits above a stop.
// So the lowest flagged lane of a word is its first stop byte.
type wordFilter struct {
	lo, hi  uint64 // 0x80-lo and 0x80-hi in every lane
	clearTN uint64 // lanes80 when tab and newline are plain though below lo
	addTN   uint64 // lanes80 when tab and newline stop though lo does not cover them
	n       int    // equality tests in use; at least two, the second may repeat the first
	or      [3]uint64
	eq      [3]uint64
}

const (
	lanes01 = 0x0101010101010101
	lanes7f = 0x7f7f7f7f7f7f7f7f
	lanes80 = 0x8080808080808080
)

var wordFilters [numContexts]wordFilter

func init() {
	for ctx, stops := range contextStops {
		f := &wordFilters[ctx]
		lo, hi := 0, 0x80
		if stops&clsCtl != 0 { // every such context stops at \r too
			lo = 0x20
		}
		if stops&clsSpace != 0 {
			lo = 0x21
		}
		if stops&clsDEL != 0 {
			hi = 0x7f
		}
		f.lo, f.hi = uint64(0x80-lo)*lanes01, uint64(0x80-hi)*lanes01
		switch tn := stops&clsTabNL != 0; {
		case lo > 0 && !tn:
			f.clearTN = lanes80
		case lo == 0 && tn:
			f.addTN = lanes80
		}
		var single []byte
		for _, c := range []byte{'<', '&', '>', '"', '\'', ']', '\r'} {
			if charClass[c]&stops != 0 && int(c) >= lo {
				single = append(single, c)
			}
		}
		for len(single) > 0 {
			if f.n == len(f.eq) {
				panic("xmlsoap: context stop set does not fit the word filter")
			}
			c, or := single[0], byte(0)
			single = single[1:]
			for k, d := range single {
				if bits.OnesCount8(c^d) == 1 {
					or = c ^ d
					single = append(single[:k], single[k+1:]...)
					break
				}
			}
			f.or[f.n], f.eq[f.n] = uint64(or)*lanes01, uint64(c|or)*lanes01
			f.n++
		}
		if f.n == 1 {
			f.or[1], f.eq[1] = f.or[0], f.eq[0]
			f.n = 2
		}
	}
}

// nibbleTable is a context's stop set as two 16-entry tables, for
// skipBlocks: byte c stops iff lo[c&15] & hi[c>>4] != 0, where lo is
// the first half and hi the second. Each bit is a bucket of high
// nibbles whose rows of stopping low nibbles are equal, so the test is
// exact as long as a context has at most eight distinct rows.
type nibbleTable [32]byte

var nibbleTables [numContexts]nibbleTable

func init() {
	for ctx, stops := range contextStops {
		var rows [16]uint16 // rows[h] has bit l set when byte h<<4|l stops
		for c := range 256 {
			if charClass[c]&stops != 0 {
				rows[c>>4] |= 1 << (c & 15)
			}
		}
		t := &nibbleTables[ctx]
		var buckets []uint16
		for h, row := range rows {
			if row == 0 {
				continue
			}
			k := slices.Index(buckets, row)
			if k < 0 {
				if k = len(buckets); k == 8 {
					panic("xmlsoap: context stop set does not fit the nibble tables")
				}
				buckets = append(buckets, row)
				for l := range 16 {
					if row>>l&1 != 0 {
						t[l] |= 1 << k
					}
				}
			}
			t[16+h] |= 1 << k
		}
	}
}

// The kernel engages only after the word filter has passed wideAfter
// plain bytes of a run and at least wideMin bytes remain, so runs
// shorter than that (and text that stops every few bytes) never pay for
// loading the tables.
const (
	wideAfter = 16
	wideMin   = 64
)

// Skip returns the index of the first byte at or after i that stops
// ctx, or len(b) if the rest of b is plain.
func Skip(b []byte, i int, ctx Context) int {
	f := &wordFilters[ctx]
	wide := i + wideAfter
	for ; i+8 <= len(b); i += 8 {
		if i == wide && useAVX2 && len(b)-i >= wideMin {
			return skipWide(b, i, ctx)
		}
		t := b[i : i+8]
		w := uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
			uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56
		low := w & lanes7f
		m := ^((low + f.lo) | w) // lanes below lo
		if f.addTN != 0 || m&f.clearTN != 0 {
			// Lanes holding 9 or 10: low^8 is 1 or 2, so (low^8)|0x80 - 1
			// is 0x80 or 0x81.
			x := (low ^ (0x08 * lanes01) | lanes80) - lanes01
			tn := x &^ ((x & lanes7f) + 0x7e*lanes01)
			m = m&^(tn&f.clearTN) | tn&f.addTN
		}
		m |= (low + f.hi) | w // lanes at or above hi
		m |= zeroLanes((w|f.or[0])^f.eq[0]) | zeroLanes((w|f.or[1])^f.eq[1])
		if f.n > 2 {
			m |= zeroLanes((w | f.or[2]) ^ f.eq[2])
		}
		if m &= lanes80; m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	stops := contextStops[ctx]
	for i < len(b) && charClass[b[i]]&stops == 0 {
		i++
	}
	return i
}

// skipWide is Skip on a long run whose first wideAfter bytes were plain:
// the kernel takes the whole 32-byte blocks, and Skip's word path the
// shorter tail. It is a call of its own so that nothing in Skip's word
// loop lives across the kernel call.
func skipWide(b []byte, i int, ctx Context) int {
	n := len(b) - i
	j := skipBlocks(&b[i], n, &nibbleTables[ctx])
	if j < n&^31 {
		return i + j
	}
	return Skip(b, i+j, ctx)
}

// zeroLanes sets bit 7 of every lane of x that is zero, plus possibly
// lanes above the lowest zero one (a borrow runs upward only).
func zeroLanes(x uint64) uint64 { return (x - lanes01) &^ x }
