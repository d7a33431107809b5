// Package xmltest holds test inputs shared by the codec's differential
// tests in xmlsoap and wsa.
package xmltest

// entities are the reference forms the sweeps place: the serializer's
// seven escapes and one broken reference.
var entities = []string{"&amp;", "&lt;", "&gt;", "&quot;", "&#10;", "&#9;", "&#13;", "&am;"}

// WordBoundaryRuns calls fn with every run of the character-class sweep:
// runs of length 1–24 bytes of 'a', with one position at offset 0–17
// replaced by each byte value 0x00–0xFF and by each of entities. The
// lengths straddle one, two and three 8-byte words and the offsets every
// lane of the first two, so a word scan that misreads a lane, a word
// boundary or the tail shows up as a wrong verdict. fn must not retain
// run.
func WordBoundaryRuns(fn func(run []byte)) {
	for n := 1; n <= 24; n++ {
		for off := 0; off < n && off <= 17; off++ {
			placeAll(fn, n, off)
		}
	}
}

// BlockBoundaryRuns calls fn with every run of the 32-byte block sweep.
// xmlsoap.Skip hands a run to its AVX2 kernel once the word filter has
// passed 16 plain bytes and at least 64 remain, and the kernel reads
// whole 32-byte blocks. The lengths straddle that engage point (79–82
// bytes, from offsets 0 and 1) and reach one and two blocks past it; a
// byte value or an entity is placed at offsets 14–81, every lane of the
// first two blocks from either start, and at each of the last 33
// offsets, every lane of the sub-block tail and the block before it.
// fn must not retain run.
func BlockBoundaryRuns(fn func(run []byte)) {
	for _, n := range []int{79, 80, 81, 82, 112, 113, 145} {
		for off := 14; off < n; off++ {
			if off <= 81 || off >= n-33 {
				placeAll(fn, n, off)
			}
		}
	}
}

// placeAll calls fn with runs of n bytes of 'a' whose byte at off is
// replaced by each byte value and by each of entities.
func placeAll(fn func(run []byte), n, off int) {
	buf := make([]byte, 0, n+8)
	place := func(ins ...byte) {
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
	for c := 0; c < 256; c++ {
		place(byte(c))
	}
	for _, e := range entities {
		place([]byte(e)...)
	}
}
