package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun prints the three decisions: each has a row per node generation,
// and the casting path and the partition flip exactly on the GH200,
// whose NVLink-C2C link makes the fp32 path the cheaper one.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	decisions := strings.Split(out.String(), "\n\n")
	if len(decisions) != 4 {
		t.Fatalf("%d sections, want 3 decisions and the summary:\n%s", len(decisions), out.String())
	}
	want := map[string][3]string{
		"DGX-2":    {"-> Cast_cpu↔Move_fp16", "", "superchip-aware: casts on CPU/CPU"},
		"DGX-A100": {"-> Cast_cpu↔Move_fp16", "", "superchip-aware: casts on CPU/CPU"},
		"GH200":    {"-> Cast_gpu↔Move_fp32", "-> yes", "superchip-aware: casts on GPU/GPU"},
	}
	for i, d := range decisions[:3] {
		rows := strings.Split(strings.TrimSpace(d), "\n")[1:]
		if len(rows) != len(want) {
			t.Errorf("decision %d: %d rows, want %d", i+1, len(rows), len(want))
		}
		for _, r := range rows {
			w, ok := want[strings.Fields(r)[0]]
			if !ok {
				t.Errorf("decision %d: row for an unknown node: %q", i+1, r)
			} else if !strings.Contains(r, w[i]) {
				t.Errorf("decision %d: %q lacks %q", i+1, r, w[i])
			}
		}
	}
}
