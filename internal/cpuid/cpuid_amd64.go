package cpuid

var avx2, f16c = probe()

// probe is in cpuid_amd64.s.
func probe() (avx2, f16c bool)
