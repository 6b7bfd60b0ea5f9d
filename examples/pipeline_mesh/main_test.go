package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun runs the example's checks: every R=2 shape, the NVMe-backed
// one included, lands bit for bit on the R=2×S=1×P=1 reference.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "bit-identical"); n != 3 {
		t.Errorf("%d bit-identical rows, want 3:\n%s", n, out.String())
	}
}
