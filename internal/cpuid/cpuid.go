// Package cpuid is the repository's one CPU feature probe. The kernels
// with assembly leaves (internal/tensor's matmul family, internal/optim's
// GraceAdam, internal/fp16's Round) read it once, at package
// initialisation, to pick the leaf or the Go loop. Both paths give the same
// bits, so the CPU decides and nothing else can: there is no switch.
package cpuid

// AVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func AVX2() bool { return avx2 }

// F16C reports whether the CPU has the F16C half-precision conversions and
// the OS saves YMM state (the 8-wide forms read and write YMM registers).
func F16C() bool { return f16c }
