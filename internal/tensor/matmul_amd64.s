#include "textflag.h"

// AVX2 leaves of the matmul family (see matmul.go for the contract). Every
// lane runs the sequence of IEEE-754 binary32 operations the Go loops run
// on the same operands: one VMULPS, then one VADDPS — never a fused
// multiply-add, which the amd64 Go compiler does not emit either. A leaf is
// one register tile; the loops over tiles stay in Go.

// One k step of one tile row: acc0, acc1 += broadcast(a) * (Y8, Y9).
#define ACCUM_ROW(aaddr, acc0, acc1) \
	VBROADCASTSS aaddr, Y10; \
	VMULPS       Y8, Y10, Y11; \
	VADDPS       Y11, acc0, acc0; \
	VMULPS       Y9, Y10, Y12; \
	VADDPS       Y12, acc1, acc1

// func accumTile4x16(out *float32, ldo int, a *float32, ars, aks int, b *float32, ldb, k int)
//
// out[r*ldo+j] += Σ_kk a[r*ars+kk*aks] * b[kk*ldb+j] for r < 4, j < 16, kk
// ascending over [0,k), k >= 1. The eight accumulators (4 rows × 2 YMM)
// start from out and stay in registers across the whole k loop. Strides
// are in elements.
TEXT ·accumTile4x16(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ ldo+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ ars+24(FP), R8
	MOVQ aks+32(FP), R9
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R10
	MOVQ k+56(FP), CX
	SHLQ $2, SI
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	LEAQ (SI)(SI*2), R12 // 3 out rows
	LEAQ (R8)(R8*2), R11 // 3 a rows

	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(SI*1), Y2
	VMOVUPS 32(DI)(SI*1), Y3
	VMOVUPS (DI)(SI*2), Y4
	VMOVUPS 32(DI)(SI*2), Y5
	VMOVUPS (DI)(R12*1), Y6
	VMOVUPS 32(DI)(R12*1), Y7

accumloop:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	ACCUM_ROW((AX), Y0, Y1)
	ACCUM_ROW((AX)(R8*1), Y2, Y3)
	ACCUM_ROW((AX)(R8*2), Y4, Y5)
	ACCUM_ROW((AX)(R11*1), Y6, Y7)
	ADDQ R9, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  accumloop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(SI*1)
	VMOVUPS Y3, 32(DI)(SI*1)
	VMOVUPS Y4, (DI)(SI*2)
	VMOVUPS Y5, 32(DI)(SI*2)
	VMOVUPS Y6, (DI)(R12*1)
	VMOVUPS Y7, 32(DI)(R12*1)
	VZEROUPPER
	RET

// One k step (four kk) of one b row: the row's four values, broadcast to
// both halves, times a rows 0|1 (Y8) and 2|3 (Y9).
#define DOT_COL(baddr, acc01, acc23) \
	VBROADCASTF128 baddr, Y10; \
	VMULPS         Y10, Y8, Y11; \
	VADDPS         Y11, acc01, acc01; \
	VMULPS         Y10, Y9, Y12; \
	VADDPS         Y12, acc23, acc23

// Fold four accumulators (columns 0..3 of one row pair; each 128-bit half
// holds one output's s0..s3) into ((s0+s1)+s2)+s3: a 4×4 transpose inside
// each half turns the per-output partials into lanes, then three adds.
// The result lands in c0: low half = the even row's four outputs, high
// half = the odd row's.
#define DOT_FOLD(c0, c1, c2, c3) \
	VUNPCKLPS c1, c0, Y8; \
	VUNPCKHPS c1, c0, Y9; \
	VUNPCKLPS c3, c2, Y10; \
	VUNPCKHPS c3, c2, Y11; \
	VUNPCKLPD Y10, Y8, c0; \
	VUNPCKHPD Y10, Y8, c1; \
	VUNPCKLPD Y11, Y9, c2; \
	VUNPCKHPD Y11, Y9, c3; \
	VADDPS    c1, c0, c0; \
	VADDPS    c2, c0, c0; \
	VADDPS    c3, c0, c0

// func dotTile4x4(out *float32, ldo int, a *float32, lda int, b *float32, ldb, k4 int)
//
// out[r*ldo+c] = ((s0+s1)+s2)+s3 with sl = Σ_t a[r*lda+4t+l] * b[c*ldb+4t+l],
// t ascending over [0,k4), k4 >= 1, for r, c < 4: MatMulT's stride-4 fold
// without its k%4 tail, which the caller adds after the store. Strides are
// in elements.
TEXT ·dotTile4x4(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ ldo+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ lda+24(FP), R8
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R10
	MOVQ k4+48(FP), CX
	SHLQ $2, SI
	SHLQ $2, R8
	SHLQ $2, R10
	LEAQ (SI)(SI*2), R12   // 3 out rows
	LEAQ (R8)(R8*2), R11   // 3 a rows
	LEAQ (R10)(R10*2), R13 // 3 b rows

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

dotloop:
	VMOVUPS     (AX), X8
	VINSERTF128 $1, (AX)(R8*1), Y8, Y8
	VMOVUPS     (AX)(R8*2), X9
	VINSERTF128 $1, (AX)(R11*1), Y9, Y9
	DOT_COL((BX), Y0, Y4)
	DOT_COL((BX)(R10*1), Y1, Y5)
	DOT_COL((BX)(R10*2), Y2, Y6)
	DOT_COL((BX)(R13*1), Y3, Y7)
	ADDQ $16, AX
	ADDQ $16, BX
	DECQ CX
	JNZ  dotloop

	DOT_FOLD(Y0, Y1, Y2, Y3)
	DOT_FOLD(Y4, Y5, Y6, Y7)
	VMOVUPS      X0, (DI)
	VEXTRACTF128 $1, Y0, (DI)(SI*1)
	VMOVUPS      X4, (DI)(SI*2)
	VEXTRACTF128 $1, Y4, (DI)(R12*1)
	VZEROUPPER
	RET
