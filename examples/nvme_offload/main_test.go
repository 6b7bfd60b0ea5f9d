package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example's checks: the DRAM and NVMe trajectories are
// bit-identical, and the flash store moved state.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trajectories are bit-identical", "flash traffic over 40 steps"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
