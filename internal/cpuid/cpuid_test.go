package cpuid

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestAVX512FImpliesAVX2: the 16-lane matmul walkers hand their edges to
// the AVX2 tiles, so a CPU the probe calls AVX-512F must be AVX2 too.
func TestAVX512FImpliesAVX2(t *testing.T) {
	if AVX512F() && !AVX2() {
		t.Fatal("AVX512F() without AVX2()")
	}
}

// TestProbeMatchesCPUInfo checks the probe against the flags Linux reports
// in /proc/cpuinfo, which the kernel clears when it does not save the
// feature's register state. Under the purego tag every feature is false.
func TestProbeMatchesCPUInfo(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("/proc/cpuinfo flags are checked on linux/amd64 only")
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("cannot read /proc/cpuinfo: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	for _, f := range []struct {
		name string
		got  bool
	}{{"avx2", AVX2()}, {"f16c", F16C()}, {"avx512f", AVX512F()}, {"fma", FMA()}} {
		if want := leaves && flags[f.name]; f.got != want {
			t.Errorf("%s: probe says %v, /proc/cpuinfo (leaves built: %v) says %v", f.name, f.got, leaves, want)
		}
	}
}
