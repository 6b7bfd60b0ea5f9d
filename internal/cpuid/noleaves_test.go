//go:build !amd64 || purego

package cpuid

// leaves: no probe was built, so every feature reads false.
const leaves = false
