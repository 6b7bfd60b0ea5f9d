#include "textflag.h"

// AVX2 and AVX-512F leaves of the matmul family (see matmul.go for the
// contract). Every lane runs the sequence of IEEE-754 binary32 operations
// the Go loops run on the same operands: one VMULPS, then one VADDPS —
// never a fused multiply-add, which the amd64 Go compiler does not emit
// either. A leaf is one register tile; the loops over tiles stay in Go.

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

// Fold four accumulators (columns 0..3; each 128-bit lane is one row and
// holds that output's s0..s3) into ((s0+s1)+s2)+s3: a 4×4 transpose
// inside each lane (t0..t3 are scratch) turns the per-output partials into
// elements, then three adds. The result lands in c0: lane r = row r's four
// outputs. The YMM leaf folds two rows at once, the ZMM leaf four.
#define DOT_FOLD(c0, c1, c2, c3, t0, t1, t2, t3) \
	VUNPCKLPS c1, c0, t0; \
	VUNPCKHPS c1, c0, t1; \
	VUNPCKLPS c3, c2, t2; \
	VUNPCKHPS c3, c2, t3; \
	VUNPCKLPD t2, t0, c0; \
	VUNPCKHPD t2, t0, c1; \
	VUNPCKLPD t3, t1, c2; \
	VUNPCKHPD t3, t1, c3; \
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

	DOT_FOLD(Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11)
	DOT_FOLD(Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	VMOVUPS      X0, (DI)
	VEXTRACTF128 $1, Y0, (DI)(SI*1)
	VMOVUPS      X4, (DI)(SI*2)
	VEXTRACTF128 $1, Y4, (DI)(R12*1)
	VZEROUPPER
	RET

// The AVX-512F leaves: the two tiles above at twice the width. Each lane
// still sees one broadcast, one VMULPS and one VADDPS per term, so the
// bits are the YMM leaves' (and the Go loops').

// ACCUM_ROW on ZMM: acc0, acc1 += broadcast(a) * (Z8, Z9).
#define ACCUM_ROW_Z(aaddr, acc0, acc1) \
	VBROADCASTSS aaddr, Z10; \
	VMULPS       Z8, Z10, Z11; \
	VADDPS       Z11, acc0, acc0; \
	VMULPS       Z9, Z10, Z12; \
	VADDPS       Z12, acc1, acc1

// func accumTile4x32(out *float32, ldo int, a *float32, ars, aks int, b *float32, ldb, k int)
//
// accumTile4x16 for j < 32: eight ZMM accumulators, two ZMM loads of b
// per k.
TEXT ·accumTile4x32(SB), NOSPLIT, $0-64
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

	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS (DI)(SI*1), Z2
	VMOVUPS 64(DI)(SI*1), Z3
	VMOVUPS (DI)(SI*2), Z4
	VMOVUPS 64(DI)(SI*2), Z5
	VMOVUPS (DI)(R12*1), Z6
	VMOVUPS 64(DI)(R12*1), Z7

accumloop:
	VMOVUPS (BX), Z8
	VMOVUPS 64(BX), Z9
	ACCUM_ROW_Z((AX), Z0, Z1)
	ACCUM_ROW_Z((AX)(R8*1), Z2, Z3)
	ACCUM_ROW_Z((AX)(R8*2), Z4, Z5)
	ACCUM_ROW_Z((AX)(R11*1), Z6, Z7)
	ADDQ R9, AX
	ADDQ R10, BX
	DECQ CX
	JNZ  accumloop

	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, (DI)(SI*1)
	VMOVUPS Z3, 64(DI)(SI*1)
	VMOVUPS Z4, (DI)(SI*2)
	VMOVUPS Z5, 64(DI)(SI*2)
	VMOVUPS Z6, (DI)(R12*1)
	VMOVUPS Z7, 64(DI)(R12*1)
	VZEROUPPER
	RET

// One k step (four kk) of one b row: the row's four values, broadcast to
// all four lanes, times a rows 0|1|2|3 (Z8).
#define DOT_COL_Z(baddr, acc) \
	VBROADCASTF32X4 baddr, Z10; \
	VMULPS          Z10, Z8, Z11; \
	VADDPS          Z11, acc, acc

// func dotTile4x8(out *float32, ldo int, a *float32, lda int, b *float32, ldb, k4 int)
//
// dotTile4x4 for c < 8. One ZMM holds a rows 0..3 as four 128-bit lanes,
// so each of the eight accumulators is one column's four rows.
TEXT ·dotTile4x8(SB), NOSPLIT, $0-56
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
	LEAQ (BX)(R10*4), DX   // b row 4

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

dotloop:
	VMOVUPS       (AX), X8
	VINSERTF32X4  $1, (AX)(R8*1), Z8, Z8
	VINSERTF32X4  $2, (AX)(R8*2), Z8, Z8
	VINSERTF32X4  $3, (AX)(R11*1), Z8, Z8
	DOT_COL_Z((BX), Z0)
	DOT_COL_Z((BX)(R10*1), Z1)
	DOT_COL_Z((BX)(R10*2), Z2)
	DOT_COL_Z((BX)(R13*1), Z3)
	DOT_COL_Z((DX), Z4)
	DOT_COL_Z((DX)(R10*1), Z5)
	DOT_COL_Z((DX)(R10*2), Z6)
	DOT_COL_Z((DX)(R13*1), Z7)
	ADDQ $16, AX
	ADDQ $16, BX
	ADDQ $16, DX
	DECQ CX
	JNZ  dotloop

	DOT_FOLD(Z0, Z1, Z2, Z3, Z8, Z9, Z10, Z11)
	DOT_FOLD(Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11)
	VMOVUPS       X0, (DI)
	VMOVUPS       X4, 16(DI)
	VEXTRACTF32X4 $1, Z0, (DI)(SI*1)
	VEXTRACTF32X4 $1, Z4, 16(DI)(SI*1)
	VEXTRACTF32X4 $2, Z0, (DI)(SI*2)
	VEXTRACTF32X4 $2, Z4, 16(DI)(SI*2)
	VEXTRACTF32X4 $3, Z0, (DI)(R12*1)
	VEXTRACTF32X4 $3, Z4, 16(DI)(R12*1)
	VZEROUPPER
	RET
