#include "textflag.h"

// func skipBlocks(p *byte, n int, tab *nibbleTable) int
//
// Classifies 32 bytes per step: each byte's low and high nibble index
// the context's two 16-entry tables (VPSHUFB looks up within each
// 128-bit lane, so both lanes hold the same table), and a byte stops
// when the two lookups share a bucket bit. Reads only the whole 32-byte
// blocks of p[:n].
TEXT ·skipBlocks(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), BX
	MOVQ tab+16(FP), DX
	ANDQ $-32, BX
	VBROADCASTI128 (DX), Y1   // low-nibble table
	VBROADCASTI128 16(DX), Y2 // high-nibble table
	MOVL $0x0f, AX
	VMOVD AX, X3
	VPBROADCASTB X3, Y3       // 0x0f in every byte
	VPXOR Y4, Y4, Y4
	XORQ AX, AX

loop:
	CMPQ AX, BX
	JAE  done
	VMOVDQU (SI)(AX*1), Y5
	VPSRLW  $4, Y5, Y6
	VPAND   Y3, Y5, Y5
	VPAND   Y3, Y6, Y6
	VPSHUFB Y5, Y1, Y5
	VPSHUFB Y6, Y2, Y6
	VPAND   Y5, Y6, Y5
	VPCMPEQB Y4, Y5, Y5        // 0xff where the byte is plain
	VPMOVMSKB Y5, DX
	XORL    $-1, DX
	JNZ     found
	ADDQ    $32, AX
	JMP     loop

found:
	TZCNTL DX, DX
	ADDQ   DX, AX

done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
