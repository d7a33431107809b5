//go:build !amd64

package xmlsoap

// useAVX2 is false off amd64: the word filter is the whole path.
var useAVX2 bool

func skipBlocks(p *byte, n int, tab *nibbleTable) int {
	panic("xmlsoap: skipBlocks without AVX2")
}
