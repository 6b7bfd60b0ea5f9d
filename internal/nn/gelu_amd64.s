//go:build !purego

#include "textflag.h"

// The AVX2+FMA leaf of gelu (see geluGo and geluForward in layers.go for
// the contract). Each of the four float64 lanes of a YMM register replays
// geluForward for one element: math.Tanh's Go code (tanh.go) with its
// three branches computed side by side and picked by VCMPPD masks, and,
// inside its exp branch, math.Exp's amd64 sequence (exp_amd64.s, the
// avxfma path). That path fuses ten multiply-adds, and the leaf fuses the
// same ten, with VFNMADD231PD and VFMADD213PD; every other operation is one
// correctly rounded VMULPD, VADDPD, VSUBPD or VDIVPD in the Go
// expression's order, as the amd64 Go compiler emits it (it never fuses).
// So every lane gets the Go loop's bits, on exactly the CPUs where
// math.Exp takes its FMA path (AVX and FMA; the caller checks AVX2 and
// FMA).
//
// In gelu's domain the exp branch sees 2|u| in [1.25, 88.03], so
// math.Exp's overflow, denormal and non-finite exits never fire and its
// scale 2^k is (k+1023)<<52. Lanes whose branch is not taken compute
// garbage (Inf, NaN, a wrapped exponent) that the blends discard.

// Each table entry is one constant in all four lanes (32 bytes).
#define ENTRY(off, v) \
	DATA gelutab<>+off(SB)/8, v; \
	DATA gelutab<>+off+8(SB)/8, v; \
	DATA gelutab<>+off+16(SB)/8, v; \
	DATA gelutab<>+off+24(SB)/8, v

ENTRY(0, $0.7978845608028654)                // geluK
ENTRY(32, $0.044715)
ENTRY(64, $0.134145)                         // 3*0.044715
ENTRY(96, $0x7FFFFFFFFFFFFFFF)               // |·|
ENTRY(128, $0x8000000000000000)              // sign bit
ENTRY(160, $0.625)                           // tanh's polynomial / exp cut
ENTRY(192, $44.014845965556527147994)        // ½·MAXLOG, tanh's saturation cut
ENTRY(224, $-9.64399179425052238628e-1)      // tanhP
ENTRY(256, $-9.92877231001918586564e1)
ENTRY(288, $-1.61468768441708447952e3)
ENTRY(320, $1.12811678491632931402e2)        // tanhQ
ENTRY(352, $2.23548839060100448583e3)
ENTRY(384, $4.84406305325125486048e3)
ENTRY(416, $1.4426950408889634073599246810018920)     // LOG2E
ENTRY(448, $0.69314718055966295651160180568695068359375) // LN2U
ENTRY(480, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
ENTRY(512, $0.0625)
ENTRY(544, $2.4801587301587301587e-5)        // exp's Taylor terms
ENTRY(576, $1.9841269841269841270e-4)
ENTRY(608, $1.3888888888888888889e-3)
ENTRY(640, $8.3333333333333333333e-3)
ENTRY(672, $4.1666666666666666667e-2)
ENTRY(704, $1.6666666666666666667e-1)
ENTRY(736, $1023)                            // exponent bias, int64
ENTRY(768, $0.5)
ENTRY(800, $1.0)
ENTRY(832, $2.0)
GLOBL gelutab<>(SB), RODATA, $864

#define GELUK gelutab<>+0(SB)
#define C044715 gelutab<>+32(SB)
#define C3X044715 gelutab<>+64(SB)
#define ABSMASK gelutab<>+96(SB)
#define SIGNMASK gelutab<>+128(SB)
#define POLYCUT gelutab<>+160(SB)
#define SATCUT gelutab<>+192(SB)
#define TANHP0 gelutab<>+224(SB)
#define TANHP1 gelutab<>+256(SB)
#define TANHP2 gelutab<>+288(SB)
#define TANHQ0 gelutab<>+320(SB)
#define TANHQ1 gelutab<>+352(SB)
#define TANHQ2 gelutab<>+384(SB)
#define LOG2E gelutab<>+416(SB)
#define LN2U gelutab<>+448(SB)
#define LN2L gelutab<>+480(SB)
#define SIXTEENTH gelutab<>+512(SB)
#define EXP8 gelutab<>+544(SB)
#define EXP7 gelutab<>+576(SB)
#define EXP6 gelutab<>+608(SB)
#define EXP5 gelutab<>+640(SB)
#define EXP4 gelutab<>+672(SB)
#define EXP3 gelutab<>+704(SB)
#define BIAS gelutab<>+736(SB)
#define HALF gelutab<>+768(SB)
#define ONE gelutab<>+800(SB)
#define TWO gelutab<>+832(SB)

// VCMPPD predicates: ordered and quiet, so a NaN lane takes the
// polynomial branch, as tanh's switch sends it there.
#define GE_OQ $0x1D
#define GT_OQ $0x1E

// GELU_BLOCK computes y into Y6 and gelu′ into Y5 from four float64 x in
// Y0; Y13, Y14 and Y15 must hold 0.5, 1 and 2. It clobbers Y1–Y9.
//
// u = geluK·(x + 0.044715·x·x·x) goes to Y1 and z = |u| to Y2.
//
// Then tanh's polynomial branch, u + u·s·P(s)/Q(s) with s = u·u, into Y3.
// tanh returns ±0 itself where this gives +0 for −0; t enters y and gelu′
// only as 1+t and t·t, where a zero's sign is lost, so the leaf skips that
// exit.
//
// Then tanh's exp branch into Y6: s = math.Exp(2z), then 1 − 2/(s+1).
// math.Exp: k = round(a·log₂e) (VCVTPD2DQ rounds by MXCSR, as CVTSD2SL
// does), r = (a − k·LN2U − k·LN2L)/16 fused, its Taylor series fused, four
// rounds of r·(r+2), the last one fused with the +1, then ·2^k.
//
// z above ½·MAXLOG saturates to 1; both give u's sign. t, in Y3, is the
// polynomial below 0.625.
//
// Then y = 0.5·x·(1+t) into Y6 and
// gelu′ = 0.5·(1+t) + 0.5·x·(1−t·t)·geluK·(1 + 3·0.044715·x·x) into Y5.
#define GELU_BLOCK \
	VMULPD       C044715, Y0, Y1; \
	VMULPD       Y0, Y1, Y1; \
	VMULPD       Y0, Y1, Y1; \
	VADDPD       Y1, Y0, Y1; \
	VMULPD       GELUK, Y1, Y1; \
	VANDPD       ABSMASK, Y1, Y2; \
	\
	VMULPD       Y1, Y1, Y3; \
	VMULPD       TANHP0, Y3, Y4; \
	VADDPD       TANHP1, Y4, Y4; \
	VMULPD       Y3, Y4, Y4; \
	VADDPD       TANHP2, Y4, Y4; \
	VADDPD       TANHQ0, Y3, Y5; \
	VMULPD       Y3, Y5, Y5; \
	VADDPD       TANHQ1, Y5, Y5; \
	VMULPD       Y3, Y5, Y5; \
	VADDPD       TANHQ2, Y5, Y5; \
	VMULPD       Y3, Y1, Y3; \
	VMULPD       Y4, Y3, Y3; \
	VDIVPD       Y5, Y3, Y3; \
	VADDPD       Y3, Y1, Y3; \
	\
	VADDPD       Y2, Y2, Y6; \
	VMULPD       LOG2E, Y6, Y7; \
	VCVTPD2DQY   Y7, X8; \
	VCVTDQ2PD    X8, Y7; \
	VFNMADD231PD LN2U, Y7, Y6; \
	VFNMADD231PD LN2L, Y7, Y6; \
	VMULPD       SIXTEENTH, Y6, Y6; \
	VMOVUPD      EXP8, Y7; \
	VFMADD213PD  EXP7, Y6, Y7; \
	VFMADD213PD  EXP6, Y6, Y7; \
	VFMADD213PD  EXP5, Y6, Y7; \
	VFMADD213PD  EXP4, Y6, Y7; \
	VFMADD213PD  EXP3, Y6, Y7; \
	VFMADD213PD  Y13, Y6, Y7; \
	VFMADD213PD  Y14, Y6, Y7; \
	VMULPD       Y7, Y6, Y6; \
	VADDPD       Y15, Y6, Y7; \
	VMULPD       Y7, Y6, Y6; \
	VADDPD       Y15, Y6, Y7; \
	VMULPD       Y7, Y6, Y6; \
	VADDPD       Y15, Y6, Y7; \
	VMULPD       Y7, Y6, Y6; \
	VADDPD       Y15, Y6, Y7; \
	VFMADD213PD  Y14, Y7, Y6; \
	VPMOVSXDQ    X8, Y9; \
	VPADDQ       BIAS, Y9, Y9; \
	VPSLLQ       $52, Y9, Y9; \
	VMULPD       Y9, Y6, Y6; \
	VADDPD       Y14, Y6, Y6; \
	VDIVPD       Y6, Y15, Y6; \
	VSUBPD       Y6, Y14, Y6; \
	\
	VCMPPD       GT_OQ, SATCUT, Y2, Y7; \
	VBLENDVPD    Y7, Y14, Y6, Y6; \
	VANDPD       SIGNMASK, Y1, Y7; \
	VORPD        Y7, Y6, Y6; \
	VCMPPD       GE_OQ, POLYCUT, Y2, Y7; \
	VBLENDVPD    Y7, Y6, Y3, Y3; \
	\
	VMULPD       Y13, Y0, Y4; \
	VADDPD       Y3, Y14, Y5; \
	VMULPD       Y5, Y4, Y6; \
	VMULPD       Y3, Y3, Y7; \
	VSUBPD       Y7, Y14, Y7; \
	VMULPD       Y7, Y4, Y7; \
	VMULPD       GELUK, Y7, Y7; \
	VMULPD       C3X044715, Y0, Y8; \
	VMULPD       Y0, Y8, Y8; \
	VADDPD       Y8, Y14, Y8; \
	VMULPD       Y8, Y7, Y7; \
	VMULPD       Y13, Y5, Y5; \
	VADDPD       Y7, Y5, Y5

#define GELU_CONSTANTS \
	VMOVUPD HALF, Y13; \
	VMOVUPD ONE, Y14; \
	VMOVUPD TWO, Y15

// func geluBlocks(y, grad, x *float32, n int)
//
// Writes gelu(x) to y and gelu′(x) to grad for elements [0,n), n a
// positive multiple of 4. grad may be x (each block is loaded before it is
// stored) or must not overlap it; y must overlap neither.
TEXT ·geluBlocks(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ grad+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	GELU_CONSTANTS
	XORQ AX, AX

loop:
	VCVTPS2PD  (SI)(AX*4), Y0
	GELU_BLOCK
	VCVTPD2PSY Y6, X6
	VMOVUPS    X6, (DI)(AX*4)
	VCVTPD2PSY Y5, X5
	VMOVUPS    X5, (DX)(AX*4)
	ADDQ       $4, AX
	CMPQ       AX, CX
	JLT        loop
	VZEROUPPER
	RET

// func geluBlocks64(y, grad, x *float64, n int)
//
// geluBlocks without the float32 conversions: the same block, on float64
// in and out, so a test can hold every intermediate rounding to
// geluForward's bit for bit and reach inputs no float32 is (|u| exactly
// 0.625). The same aliasing rules apply.
TEXT ·geluBlocks64(SB), NOSPLIT, $0-32
	MOVQ y+0(FP), DI
	MOVQ grad+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	GELU_CONSTANTS
	XORQ AX, AX

loop64:
	VMOVUPD (SI)(AX*8), Y0
	GELU_BLOCK
	VMOVUPD Y6, (DI)(AX*8)
	VMOVUPD Y5, (DX)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JLT     loop64
	VZEROUPPER
	RET
