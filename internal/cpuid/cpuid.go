// Package cpuid is the repository's one CPU feature probe. The kernels
// with assembly leaves (internal/tensor's matmul family, internal/optim's
// GraceAdam, internal/fp16's Round, internal/nn's GELU) read it once, at
// package initialisation, to pick the leaf or the Go loop. Both paths give
// the same bits, so the CPU decides and nothing else can: there is no
// switch.
//
// A feature counts only when the OS also saves the register state its
// leaves use: XCR0's XMM and YMM bits for AVX2, F16C and FMA, and for
// AVX-512F the opmask and both ZMM halves as well (XCR0 bits 1, 2, 5, 6
// and 7).
//
// FMA gates the GELU leaf, which replays math.Exp's amd64 sequence: math.Exp
// runs its fused multiply-add branch on exactly the CPUs that have AVX and
// FMA, so the leaf's fused operations match the Go loop only there.
//
// Built with the purego tag (the Go convention for "no assembly"), or on
// any GOARCH but amd64, the package reports no feature, so every kernel
// runs its Go loop: `go test -tags purego ./...` checks the Go loops
// against every golden on an amd64 host. The tag is a build constraint,
// not a runtime knob.
package cpuid

// AVX2 reports whether the CPU has AVX2 and the OS saves YMM state.
func AVX2() bool { return avx2 }

// F16C reports whether the CPU has the F16C half-precision conversions and
// the OS saves YMM state (the 8-wide forms read and write YMM registers).
func F16C() bool { return f16c }

// FMA reports whether the CPU has the FMA3 fused multiply-adds and the OS
// saves YMM state.
func FMA() bool { return fma }

// AVX512F reports whether the CPU has AVX-512 Foundation, the OS saves
// opmask and ZMM state, and AVX2() holds too: the 16-lane leaves share
// their row walkers, and their edges, with the AVX2 ones.
func AVX512F() bool { return avx512f }
