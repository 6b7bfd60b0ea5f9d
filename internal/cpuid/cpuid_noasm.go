//go:build !amd64

package cpuid

// No assembly leaves on this architecture: every kernel runs its Go loop.
const avx2, f16c = false, false
