//go:build amd64 && !purego

package cpuid

// leaves: the probe ran, so a feature reads as the CPU and OS report it.
const leaves = true
