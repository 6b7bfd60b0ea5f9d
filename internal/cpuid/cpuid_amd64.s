//go:build !purego

#include "textflag.h"

// func probe() (avx2, f16c, avx512f, fma bool)
//
// All four need CPUID leaf 1 ECX bits 27 (OSXSAVE) and 28 (AVX) and XCR0
// bits 1-2 (the OS saves XMM and YMM state). Then F16C is CPUID leaf 1
// ECX bit 29, FMA leaf 1 ECX bit 12 and AVX2 CPUID leaf 7 EBX bit 5.
// AVX-512F is leaf 7 EBX bit 16 with AVX2, and XCR0 bits 5-7 (opmask,
// ZMM0-15 upper halves, ZMM16-31).
TEXT ·probe(SB), NOSPLIT, $0-4
	MOVB $0, avx2+0(FP)
	MOVB $0, f16c+1(FP)
	MOVB $0, avx512f+2(FP)
	MOVB $0, fma+3(FP)
	MOVL $0, AX
	MOVL $0, CX
	CPUID
	MOVL AX, R8 // highest standard leaf
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, R9 // leaf 1 ECX
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	MOVL $0, CX
	XGETBV
	MOVL AX, R10 // XCR0 low half
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	TESTL $0x1000, R9
	JZ   f16cbit
	MOVB $1, fma+3(FP)
f16cbit:
	TESTL $0x20000000, R9
	JZ   leaf7
	MOVB $1, f16c+1(FP)
leaf7:
	CMPL R8, $7
	JLT  done
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	TESTL $0x20, BX
	JZ   done
	MOVB $1, avx2+0(FP)
	TESTL $0x10000, BX
	JZ   done
	ANDL $0xE6, R10
	CMPL R10, $0xE6
	JNE  done
	MOVB $1, avx512f+2(FP)
done:
	RET
