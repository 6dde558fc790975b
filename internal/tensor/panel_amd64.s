#include "textflag.h"

// MAC continues eight chains by one term: acc += Y8·b[off:off+8], where Y8
// holds a[p] in every lane and BX points at row p of the strip. The product
// is rounded before the add (VMULPS then VADDPS, never a fused
// multiply-add), which is what makes a lane the same float32 chain the
// scalar kernel runs.
#define MAC(off, acc, tmp) \
	VMULPS off(BX), Y8, tmp; \
	VADDPS tmp, acc, acc

// ROWS walks p = 0…k−1 for one strip whose accumulators are already loaded.
// No term is skipped: a branch on a[p] == 0 costs more in mispredictions on
// the zeros a ReLU leaves than the eight multiply-adds it saves. Zeros are
// skipped a level up instead, by nn.Dense, which calls this kernel only on
// the runs of rows between 8-row groups of all-zero inputs: there a group
// costs one predictable check and, when it is skipped, saves eight rows of
// weight reads, the loop's real bound.
#define ROWS(loop, macs) \
	MOVQ SI, AX; \
	MOVQ DX, BX; \
	MOVQ CX, R10; \
loop: \
	VBROADCASTSS (AX), Y8; \
	macs; \
	ADDQ $4, AX; \
	ADDQ R8, BX; \
	DECQ R10; \
	JNZ  loop

// func panelAVX2(a *float32, k int, b *float32, ldb int, c *float32, blocks int)
//
// c[j] += Σ_p a[p]·b[p·ldb+j] for j < 8·blocks and p < k (k ≥ 1), ascending
// p, one chain per output. Outputs are taken in strips of 64, then 32, then
// 8, each strip's sums held in YMM registers across its whole p loop.
TEXT ·panelAVX2(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ b+16(FP), DX
	MOVQ ldb+24(FP), R8
	MOVQ c+32(FP), DI
	MOVQ blocks+40(FP), R9
	SHLQ $2, R8 // row stride of b in bytes

strip8:
	CMPQ R9, $8
	JLT  strip4
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	ROWS(loop8, MAC(0, Y0, Y9); MAC(32, Y1, Y10); MAC(64, Y2, Y11); MAC(96, Y3, Y12); MAC(128, Y4, Y13); MAC(160, Y5, Y14); MAC(192, Y6, Y15); MAC(224, Y7, Y9))
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $8, R9
	JMP  strip8

strip4:
	CMPQ R9, $4
	JLT  strip1
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	ROWS(loop4, MAC(0, Y0, Y9); MAC(32, Y1, Y10); MAC(64, Y2, Y11); MAC(96, Y3, Y12))
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $4, R9

strip1:
	TESTQ R9, R9
	JZ    done
	VMOVUPS 0(DI), Y0
	ROWS(loop1, MAC(0, Y0, Y9))
	VMOVUPS Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ R9
	JMP  strip1

done:
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
