#include "textflag.h"

// func roundBlocks(dst, src *float32, n int) int
//
// The F16C leaf of Round (see roundGo in fp16.go for the contract). Each
// 8-element block is narrowed by VCVTPS2PH with immediate 0 (round to
// nearest even, MXCSR ignored) and widened back by VCVTPH2PS, which is
// exact: every finite value, ±Inf and quiet NaN comes out as
// Uncast(Cast(x)). A signalling NaN would come out quieted, so the leaf
// returns at the first block holding any NaN, before storing it. n is a
// multiple of 8; dst may be src or must not overlap it.
TEXT ·roundBlocks(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	CMPQ AX, CX
	JGE  done

loop:
	VMOVUPS   (SI)(AX*4), Y0
	VCMPPS    $3, Y0, Y0, Y1 // unordered with itself: the NaN lanes
	VPTEST    Y1, Y1
	JNZ       done
	VCVTPS2PH $0, Y0, X2
	VCVTPH2PS X2, Y2
	VMOVUPS   Y2, (DI)(AX*4)
	ADDQ      $8, AX
	CMPQ      AX, CX
	JLT       loop

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
