package xmlsoap

// useAVX2 reports whether Skip may hand long plain runs to skipBlocks:
// the CPU has AVX2 and BMI1 (TZCNT), and the OS saves YMM state.
var useAVX2 = haveAVX2()

// skipBlocks returns the index in p[:n] of the first byte that stops
// tab's context among the whole 32-byte blocks, or the length those
// blocks cover (n rounded down to a multiple of 32) when all are plain.
//
//go:noescape
func skipBlocks(p *byte, n int, tab *nibbleTable) int

// cpuid and xgetbv run the instructions of the same name.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func haveAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const bmi1, avx2 = 1 << 3, 1 << 5
	return ebx7&(bmi1|avx2) == bmi1|avx2
}
