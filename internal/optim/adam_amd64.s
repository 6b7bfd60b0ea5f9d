#include "textflag.h"

// The AVX2 leaf of GraceAdam (see graceAdamGo in adam.go for the
// contract). Each lane runs the Go loop's IEEE-754 binary32 operations on
// the same operands in the same order — VMULPS, VADDPS, VSUBPS, VSQRTPS,
// VDIVPS, never a fused multiply-add, which the amd64 Go compiler does not
// emit either — so every element gets the Go loop's bits:
//
//	g  = g·gs                (unless gs is 1; written back)
//	m  = b1·m + ob1·g
//	v  = b2·v + (ob2·g)·g
//	p  = p − ((stepSize·m)/((√v·invBc2s)+eps) + wd·p)
//
// On x86 an operation on two NaNs returns its first source's, so the
// operand order decides which payload survives: the two moment sums take their
// second addend as the first source, as the compiled Go loop does, and
// every other operation takes its left operand.
//
// The factors live in Y7–Y15 for the whole call; Y0–Y6 hold one block.

// One 8-element block at index BX; g is in Y0.
#define ADAM_BLOCK \
	VMULPS  (R11)(BX*4), Y8, Y1; \
	VMULPS  Y0, Y9, Y2; \
	VADDPS  Y1, Y2, Y1; \
	VMOVUPS Y1, (DX)(BX*4); \
	VMULPS  (R12)(BX*4), Y10, Y3; \
	VMULPS  Y0, Y11, Y4; \
	VMULPS  Y0, Y4, Y4; \
	VADDPS  Y3, Y4, Y3; \
	VMOVUPS Y3, (SI)(BX*4); \
	VSQRTPS Y3, Y3; \
	VMULPS  Y13, Y3, Y3; \
	VADDPS  Y14, Y3, Y3; \
	VMULPS  Y1, Y12, Y1; \
	VDIVPS  Y3, Y1, Y1; \
	VMOVUPS (R8)(BX*4), Y5; \
	VMULPS  Y5, Y15, Y6; \
	VADDPS  Y6, Y1, Y1; \
	VSUBPS  Y1, Y5, Y5; \
	VMOVUPS Y5, (DI)(BX*4)

// func adamBlocks(dp, dm, dv, p, grad, sm, sv *float32, n int, gs, b1, ob1, b2, ob2, stepSize, invBc2s, eps, wd float32)
//
// Steps elements [0,n), n a positive multiple of 8. The destinations may be
// their sources (each block is loaded before it is stored) or must not
// overlap them.
TEXT ·adamBlocks(SB), NOSPLIT, $0-100
	MOVQ dp+0(FP), DI
	MOVQ dm+8(FP), DX
	MOVQ dv+16(FP), SI
	MOVQ p+24(FP), R8
	MOVQ grad+32(FP), R9
	MOVQ sm+40(FP), R11
	MOVQ sv+48(FP), R12
	MOVQ n+56(FP), CX
	VBROADCASTSS gs+64(FP), Y7
	VBROADCASTSS b1+68(FP), Y8
	VBROADCASTSS ob1+72(FP), Y9
	VBROADCASTSS b2+76(FP), Y10
	VBROADCASTSS ob2+80(FP), Y11
	VBROADCASTSS stepSize+84(FP), Y12
	VBROADCASTSS invBc2s+88(FP), Y13
	VBROADCASTSS eps+92(FP), Y14
	VBROADCASTSS wd+96(FP), Y15
	XORQ BX, BX
	MOVL gs+64(FP), AX
	CMPL AX, $0x3F800000 // gs == 1: the gradients are read as they are
	JEQ  plain

scaled:
	VMOVUPS (R9)(BX*4), Y0
	VMULPS  Y7, Y0, Y0
	VMOVUPS Y0, (R9)(BX*4)
	ADAM_BLOCK
	ADDQ $8, BX
	CMPQ BX, CX
	JLT  scaled
	VZEROUPPER
	RET

plain:
	VMOVUPS (R9)(BX*4), Y0
	ADAM_BLOCK
	ADDQ $8, BX
	CMPQ BX, CX
	JLT  plain
	VZEROUPPER
	RET
