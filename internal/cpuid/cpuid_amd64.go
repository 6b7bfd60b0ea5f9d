//go:build !purego

package cpuid

var avx2, f16c, avx512f, fma = probe()

// probe is in cpuid_amd64.s.
func probe() (avx2, f16c, avx512f, fma bool)
