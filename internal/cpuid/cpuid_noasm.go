//go:build !amd64 || purego

package cpuid

// No assembly leaves on this architecture, or none wanted (the purego tag):
// every kernel runs its Go loop.
const avx2, f16c, avx512f, fma = false, false, false, false
