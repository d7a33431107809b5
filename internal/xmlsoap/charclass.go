package xmlsoap

import "math/bits"

// This file is the codec's one answer to "which bytes are plain": a
// [256] class table, the reading contexts defined as sets of classes,
// and Skip, which passes over a run of plain bytes eight at a time. The
// package doc states the contract.

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
	escapeText // AppendEscapedText: bytes it escapes, and UTF-8
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
	escapeText: clsLT | clsAmp | clsGT | clsHigh,
	escapeAttr: clsLT | clsAmp | clsGT | clsQuot | clsTabNL | clsHigh,
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
		if stops&(clsCR|clsCtl) != 0 {
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
		for _, c := range []byte{'<', '&', '>', '"', '\'', ']'} {
			if charClass[c]&stops != 0 {
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

// Skip returns the index of the first byte at or after i that stops
// ctx, or len(b) if the rest of b is plain.
func Skip(b []byte, i int, ctx Context) int { return skip(b, i, ctx) }

// skip is Skip for either byte container.
func skip[S ~string | ~[]byte](s S, i int, ctx Context) int {
	f := &wordFilters[ctx]
	for ; i+8 <= len(s); i += 8 {
		t := s[i : i+8]
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
	for i < len(s) && charClass[s[i]]&stops == 0 {
		i++
	}
	return i
}

// zeroLanes sets bit 7 of every lane of x that is zero, plus possibly
// lanes above the lowest zero one (a borrow runs upward only).
func zeroLanes(x uint64) uint64 { return (x - lanes01) &^ x }
