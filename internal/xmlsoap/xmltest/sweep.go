// Package xmltest holds test inputs shared by the codec's differential
// tests in xmlsoap and wsa.
package xmltest

// entities are the reference forms the word-boundary sweep places: the
// serializer's six escapes and one broken reference.
var entities = []string{"&amp;", "&lt;", "&gt;", "&quot;", "&#10;", "&#9;", "&am;"}

// WordBoundaryRuns calls fn with every run of the character-class sweep:
// runs of length 1–24 bytes of 'a', with one position at offset 0–17
// replaced by each byte value 0x00–0xFF and by each of entities. The
// lengths straddle one, two and three 8-byte words and the offsets every
// lane of the first two, so a word scan that misreads a lane, a word
// boundary or the tail shows up as a wrong verdict. fn must not retain
// run.
func WordBoundaryRuns(fn func(run []byte)) {
	var buf []byte
	place := func(n, off int, ins ...byte) {
		buf = buf[:0]
		for k := 0; k < off; k++ {
			buf = append(buf, 'a')
		}
		buf = append(buf, ins...)
		for k := off + 1; k < n; k++ {
			buf = append(buf, 'a')
		}
		fn(buf)
	}
	for n := 1; n <= 24; n++ {
		for off := 0; off < n && off <= 17; off++ {
			for c := 0; c < 256; c++ {
				place(n, off, byte(c))
			}
			for _, e := range entities {
				place(n, off, []byte(e)...)
			}
		}
	}
}
